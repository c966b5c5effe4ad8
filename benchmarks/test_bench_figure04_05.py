"""Benchmark: regenerate Figures 4 and 5 (value and cached interval over time)."""

import math

from repro.experiments import figure04_05_timeseries


def test_figure04_05_timeseries(save_result):
    result = figure04_05_timeseries.run()
    save_result(result)
    figures = set(result.column("figure"))
    assert figures == {"fig4_small", "fig5_large"}
    # Every finite cached interval must contain the exact value it approximates.
    for _, __, value, low, high in result.rows:
        if not math.isnan(low):
            assert low - 1e-6 <= value <= high + 1e-6


def test_figure04_05_width_scales_with_constraint():
    small = figure04_05_timeseries.run_timeseries(constraint_average=50_000.0)
    large = figure04_05_timeseries.run_timeseries(constraint_average=500_000.0)

    def mean_final_width(run):
        widths = [w for w in run.result.final_widths.values() if w < float("inf")]
        return sum(widths) / len(widths)

    # The paper: widths track delta_avg (roughly delta_avg / query fan-out).
    # The busiest host's width is dominated by its own volatility, so the
    # constraint scaling is checked on the population of converged widths.
    assert mean_final_width(large) > 2.0 * mean_final_width(small)
    # The tracked host still gets at least somewhat wider intervals.
    assert large.mean_finite_width() > small.mean_finite_width()
