"""Benchmark: regenerate Figure 2 (analytical cost rate and refresh probabilities)."""

from repro.experiments import figure02_model


def test_figure02_model_curves(save_result):
    result = figure02_model.run()
    save_result(result)
    p_vr = result.column("P_vr")
    p_qr = result.column("P_qr")
    omega = result.column("Omega")
    # Shape checks from the paper: P_vr falls, P_qr rises, Omega has an
    # interior minimum at the crossing of the two curves.
    assert p_vr == sorted(p_vr, reverse=True)
    assert p_qr == sorted(p_qr)
    best_index = omega.index(min(omega))
    assert 0 < best_index < len(omega) - 1
