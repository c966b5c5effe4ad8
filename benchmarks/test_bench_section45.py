"""Benchmark: regenerate the Section 4.5 "unsuccessful variations" comparison."""

from repro.experiments import section45_variations


def test_section45_uncentered_variation(save_result):
    result = section45_variations.run()
    save_result(result)
    costs = {(row[0], row[1]): row[2] for row in result.rows}
    centred_unbiased = costs[("unbiased walk", "centred (paper default)")]
    uncentered_unbiased = costs[("unbiased walk", "uncentered (Section 4.5)")]
    # Paper conclusion: on unbiased data the uncentered variation does not
    # provide a meaningful improvement over the centred default.
    assert uncentered_unbiased >= centred_unbiased * 0.9
    # Both variants must produce sane, positive costs on the biased walk too.
    assert costs[("biased walk", "centred (paper default)")] > 0
    assert costs[("biased walk", "uncentered (Section 4.5)")] > 0
