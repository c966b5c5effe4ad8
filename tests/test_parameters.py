"""Unit tests for the algorithm parameter bundle."""

import math

import pytest

from repro.core.parameters import PAPER_COST_CONFIGURATIONS, PrecisionParameters


class TestValidation:
    def test_defaults_are_valid(self):
        params = PrecisionParameters()
        assert params.value_refresh_cost == 1.0
        assert params.query_refresh_cost == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"value_refresh_cost": 0.0},
            {"value_refresh_cost": -1.0},
            {"query_refresh_cost": 0.0},
            {"adaptivity": -0.1},
            {"lower_threshold": -1.0},
            {"upper_threshold": -1.0},
            {"cost_factor_multiplier": 0.0},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            PrecisionParameters(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            "value_refresh_cost",
            "query_refresh_cost",
            "adaptivity",
            "lower_threshold",
            "upper_threshold",
            "cost_factor_multiplier",
        ],
    )
    def test_rejects_nan(self, field):
        # Every comparison with NaN is false, so a plain sign test lets it in.
        with pytest.raises(ValueError, match=field):
            PrecisionParameters(**{field: math.nan})

    def test_rejects_upper_below_lower_threshold(self):
        with pytest.raises(ValueError):
            PrecisionParameters(lower_threshold=5.0, upper_threshold=1.0)

    def test_equal_thresholds_allowed(self):
        params = PrecisionParameters(lower_threshold=2.0, upper_threshold=2.0)
        assert params.forces_exact_caching


class TestDerivedQuantities:
    def test_cost_factor_formula(self):
        params = PrecisionParameters(value_refresh_cost=4.0, query_refresh_cost=2.0)
        assert params.cost_factor == pytest.approx(4.0)

    def test_cost_factor_rho_one(self):
        params = PrecisionParameters(value_refresh_cost=1.0, query_refresh_cost=2.0)
        assert params.cost_factor == pytest.approx(1.0)

    def test_stale_value_cost_factor_multiplier(self):
        params = PrecisionParameters(
            value_refresh_cost=1.0, query_refresh_cost=2.0
        ).for_stale_values()
        assert params.cost_factor == pytest.approx(0.5)

    def test_growth_probability_capped_at_one(self):
        params = PrecisionParameters(value_refresh_cost=4.0, query_refresh_cost=2.0)
        assert params.growth_probability == 1.0
        assert params.shrink_probability == pytest.approx(0.25)

    def test_shrink_probability_capped_at_one(self):
        params = PrecisionParameters(value_refresh_cost=0.5, query_refresh_cost=2.0)
        assert params.cost_factor == pytest.approx(0.5)
        assert params.growth_probability == pytest.approx(0.5)
        assert params.shrink_probability == 1.0

    def test_probabilities_balanced_at_rho_one(self):
        params = PrecisionParameters(value_refresh_cost=1.0, query_refresh_cost=2.0)
        assert params.growth_probability == 1.0
        assert params.shrink_probability == 1.0

    def test_growth_factor(self):
        assert PrecisionParameters(adaptivity=0.5).growth_factor == pytest.approx(1.5)

    def test_forces_exact_caching_false_by_default(self):
        assert not PrecisionParameters().forces_exact_caching


class TestConstructorsAndTransforms:
    def test_for_cost_factor_inverts_rho(self):
        params = PrecisionParameters.for_cost_factor(4.0)
        assert params.cost_factor == pytest.approx(4.0)
        assert params.query_refresh_cost == 2.0
        assert params.value_refresh_cost == pytest.approx(4.0)

    def test_for_cost_factor_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PrecisionParameters.for_cost_factor(0.0)

    def test_for_cost_factor_rejects_nan(self):
        with pytest.raises(ValueError, match="cost_factor"):
            PrecisionParameters.for_cost_factor(math.nan)

    def test_with_thresholds(self):
        params = PrecisionParameters().with_thresholds(1.0, 10.0)
        assert params.lower_threshold == 1.0
        assert params.upper_threshold == 10.0

    def test_with_adaptivity(self):
        assert PrecisionParameters().with_adaptivity(3.0).adaptivity == 3.0

    def test_as_dict_contains_paper_symbols(self):
        mapping = PrecisionParameters().as_dict()
        for symbol in ("C_vr", "C_qr", "rho", "alpha", "theta_0", "theta_1"):
            assert symbol in mapping

    def test_paper_cost_configurations(self):
        loose = PAPER_COST_CONFIGURATIONS["loose_consistency"]
        locking = PAPER_COST_CONFIGURATIONS["two_phase_locking"]
        assert loose.cost_factor == pytest.approx(1.0)
        assert locking.cost_factor == pytest.approx(4.0)

    def test_immutability(self):
        params = PrecisionParameters()
        with pytest.raises(AttributeError):
            params.adaptivity = 2.0  # type: ignore[misc]

    def test_default_upper_threshold_is_infinite(self):
        assert math.isinf(PrecisionParameters().upper_threshold)
