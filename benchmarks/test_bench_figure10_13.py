"""Benchmark: regenerate Figures 10-13 (comparison with WJH97 exact caching)."""

from collections import defaultdict

from repro.experiments import figure10_13_exact


def test_figure10_13_exact_caching_comparison(save_result):
    result = figure10_13_exact.run(query_periods=(1.0, 5.0))
    save_result(result)
    by_setting = defaultdict(dict)
    for figure, query_period, policy, delta_avg, omega in result.rows:
        by_setting[(figure, query_period)][(policy, delta_avg)] = omega
    busiest_period = min(period for _, period in by_setting)
    wins = 0
    comparisons = 0
    for (figure, query_period), costs in by_setting.items():
        exact = costs[("exact caching (WJH97)", 0.0)]
        subsumption = costs[("adaptive, theta1=theta0", 0.0)]
        loose = costs[("adaptive, theta1=inf", 500.0)]
        # Subsumption claim: the threshold-restricted adaptive algorithm tracks
        # the tuned WJH97 baseline closely.
        assert subsumption < 1.5 * exact
        # Looser constraints never cost more than exact-precision ones.
        assert loose <= costs[("adaptive, theta1=inf", 0.0)] + 1e-9
        # Headline claim: with loose constraints, a busy query stream and a
        # cache big enough to hold every approximation, the adaptive algorithm
        # should beat exact caching.  At long query periods the two converge
        # (queries are too rare for precision to matter), and with a small
        # cache the paper itself notes the benefit largely disappears because
        # wide intervals get evicted — so the strict comparison applies to the
        # full-cache figures at the busiest period only.
        if query_period == busiest_period and figure in ("figure10", "figure11"):
            comparisons += 1
            if loose < exact:
                wins += 1
            assert loose <= 1.15 * exact
        else:
            assert loose <= 1.6 * exact
    assert comparisons > 0
    assert wins >= (comparisons + 1) // 2
