"""Benchmark: regenerate Table 1 (symbol glossary)."""

from repro.experiments import table1


def test_table1(save_result):
    result = table1.run()
    save_result(result)
    assert len(result.rows) >= 20
    assert "rho" in result.column("symbol")
