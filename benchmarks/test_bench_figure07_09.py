"""Benchmark: regenerate Figures 7-9 (upper-threshold settings vs delta_avg)."""

from collections import defaultdict

from repro.experiments import figure07_09_thresholds


def test_figure07_09_threshold_settings(save_result):
    result = figure07_09_thresholds.run()
    save_result(result)
    series = defaultdict(dict)
    for query_period, theta_label, delta_avg, omega in result.rows:
        series[(query_period, theta_label)][delta_avg] = omega
    for (query_period, theta_label), costs in series.items():
        deltas = sorted(costs)
        if theta_label == "theta1=theta0":
            # Exact-caching behaviour is insensitive to the precision constraint.
            spread = max(costs.values()) - min(costs.values())
            assert spread <= 0.2 * max(costs.values()) + 1e-9
        if theta_label == "theta1=inf":
            # Loosening constraints must reduce cost substantially.
            assert costs[deltas[-1]] < costs[deltas[0]]
    # theta1=inf should be the best setting once constraints are loose.
    for query_period in {qp for qp, _ in series}:
        loose = max(delta for delta in series[(query_period, "theta1=inf")])
        assert (
            series[(query_period, "theta1=inf")][loose]
            <= series[(query_period, "theta1=theta0")][loose]
        )
