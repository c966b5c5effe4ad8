"""Benchmark: regenerate the Section 4.4 sensitivity studies."""

from repro.experiments import section44_sensitivity


def test_section44_sensitivity(save_result):
    result = section44_sensitivity.run()
    save_result(result)
    theta_rows = [row for row in result.rows if row[0] == "theta0_study"]
    sigma_rows = [row for row in result.rows if row[0] == "sigma_study"]
    assert theta_rows and sigma_rows

    # theta_0 = 1K should cost only a modest amount more than theta_0 = 0 for
    # a moderate-constraint workload (paper: under a few percent).
    costs_by_theta = {row[1]: row[3] for row in theta_rows}
    assert costs_by_theta[1.0] <= costs_by_theta[0.0] * 1.25

    # Widening the constraint spread (sigma 0 -> 1) should only mildly degrade
    # performance for each delta_avg (paper: 1.9% / 5.5% / <1%).
    by_delta = {}
    for _, delta_avg, sigma, omega in sigma_rows:
        by_delta.setdefault(delta_avg, {})[sigma] = omega
    for costs in by_delta.values():
        assert costs[1.0] <= costs[0.0] * 1.35
