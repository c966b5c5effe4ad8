"""Benchmark: regenerate Figure 6 (effect of the adaptivity parameter alpha)."""

from collections import defaultdict

from repro.experiments import figure06_adaptivity


def test_figure06_adaptivity_sweep(save_result):
    result = figure06_adaptivity.run()
    save_result(result)
    # Group rows per configuration and check that alpha = 1 is a reasonable
    # overall setting: for every configuration its cost is within 50% of that
    # configuration's best alpha (the paper concludes alpha = 1 is a good
    # overall choice, not that it is optimal everywhere).
    per_config = defaultdict(dict)
    for cost_factor, query_period, bounds, alpha, omega in result.rows:
        per_config[(cost_factor, query_period, bounds)][alpha] = omega
    assert per_config, "the sweep produced no configurations"
    for costs_by_alpha in per_config.values():
        best = min(costs_by_alpha.values())
        assert costs_by_alpha[1.0] <= best * 1.5
