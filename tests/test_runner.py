"""Tests for the process-pool experiment runner."""

import math

import pytest

from repro.experiments import section45_variations
from repro.experiments.base import registry
from repro.experiments.runner import (
    ExperimentPlan,
    SubRun,
    execute_subrun,
    plan_registry,
    run_plan,
)


def _rows_for(value, scale=1):
    """Module-level sub-run function (picklable for the process pool)."""
    return [(value, value * scale)]


def _rows_equal(first, second):
    if len(first) != len(second):
        return False
    for row_a, row_b in zip(first, second):
        for cell_a, cell_b in zip(row_a, row_b):
            both_nan = (
                isinstance(cell_a, float)
                and isinstance(cell_b, float)
                and math.isnan(cell_a)
                and math.isnan(cell_b)
            )
            if not both_nan and cell_a != cell_b:
                return False
    return True


def _toy_plan():
    return ExperimentPlan(
        experiment_id="toy",
        title="toy experiment",
        columns=("value", "scaled"),
        subruns=tuple(
            SubRun(
                label=f"v{value}",
                func=_rows_for,
                kwargs={"value": value, "scale": 10},
            )
            for value in range(5)
        ),
        notes="toy notes",
    )


class TestPlanBasics:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(
                experiment_id="dup",
                title="",
                columns=("a",),
                subruns=(
                    SubRun(label="x", func=_rows_for, kwargs={"value": 1}),
                    SubRun(label="x", func=_rows_for, kwargs={"value": 2}),
                ),
            )

    def test_execute_subrun_runs_in_process(self):
        subrun = SubRun(label="one", func=_rows_for, kwargs={"value": 7})
        assert execute_subrun(subrun) == [(7, 7)]

    def test_empty_plan_yields_empty_result(self):
        plan = ExperimentPlan("empty", "t", ("c",), subruns=())
        assert run_plan(plan).rows == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            run_plan(_toy_plan(), workers=-1)


class TestRunPlan:
    def test_sequential_rows_in_plan_order(self):
        result = run_plan(_toy_plan())
        assert result.rows == [(value, value * 10) for value in range(5)]
        assert result.experiment_id == "toy"
        assert result.notes == "toy notes"

    def test_parallel_matches_sequential_on_toy_plan(self):
        plan = _toy_plan()
        assert run_plan(plan, workers=3).rows == run_plan(plan).rows

    def test_parallel_matches_sequential_on_real_experiment(self):
        # A reduced-scale real experiment: this exercises pickling of the
        # experiment sub-run functions and the determinism of their seeding.
        plan = section45_variations.plan(duration=150.0, source_count=2)
        sequential = run_plan(plan)
        parallel = run_plan(plan, workers=2)
        assert _rows_equal(sequential.rows, parallel.rows)
        assert sequential.notes == parallel.notes

    def test_workers_one_equivalent_to_none(self):
        plan = _toy_plan()
        assert run_plan(plan, workers=1).rows == run_plan(plan, workers=None).rows


class TestPlanRegistry:
    def test_ids_are_registered_experiments(self):
        experiment_ids = set(registry())
        assert set(plan_registry()) <= experiment_ids

    def test_multi_config_experiments_have_plans(self):
        assert {
            "figure04_05",
            "figure07_09",
            "figure10_13",
            "section44",
            "section45",
            "ablations",
        } == set(plan_registry())

    def test_factories_build_plans_with_subruns(self):
        for experiment_id, factory in plan_registry().items():
            plan = factory()
            assert plan.experiment_id == experiment_id
            assert len(plan.subruns) >= 2
