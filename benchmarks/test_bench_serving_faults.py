"""Benchmark: regenerate the serving fabric's chaos table (fault injection).

Every fault schedule derives from its plan's seed, so the table is
byte-stable and committed like the paper tables.
"""

from repro.experiments import serving_faults


def test_serving_faults(save_result):
    result = serving_faults.run()
    save_result(result)
    # Faults may widen answers, never make them wrong: no returned interval
    # may exclude the true aggregate under any plan.
    assert result.column("violations") == [0] * len(result.rows)
    assert len(result.rows) == len(serving_faults.DEFAULT_PLANS)
