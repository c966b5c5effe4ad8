"""Benchmark: design-choice ablations (adjustment probabilities, eviction policy)."""

from repro.experiments import ablations


def test_ablation_adjustment_probabilities(save_result):
    rows = ablations.run_probability_ablation()
    from repro.experiments.base import ExperimentResult

    result = ExperimentResult(
        experiment_id="ablation_probabilities",
        title="Probabilistic width adjustment vs always adjusting (rho = 4)",
        columns=("ablation", "variant", "Omega"),
        rows=rows,
    )
    save_result(result)
    costs = {row[1]: row[2] for row in rows}
    paper_variant = next(
        value for key, value in costs.items() if key.startswith("min(")
    )
    ablated = costs["always adjust (ablated)"]
    # The paper's probabilistic rule should not be clearly worse than always
    # adjusting; Section 3 predicts it is the better choice for rho != 1.
    assert paper_variant <= ablated * 1.15


def test_ablation_eviction_policy(save_result):
    rows = ablations.run_eviction_ablation()
    from repro.experiments.base import ExperimentResult

    result = ExperimentResult(
        experiment_id="ablation_eviction",
        title="Widest-first eviction vs LRU vs random (space-constrained cache)",
        columns=("ablation", "variant", "Omega"),
        rows=rows,
    )
    save_result(result)
    costs = {row[1]: row[2] for row in rows}
    best = min(costs.values())
    # The paper's widest-first rule should be competitive with the best
    # alternative eviction policy.
    assert costs["widest-first (paper)"] <= best * 1.25
