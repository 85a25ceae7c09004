import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim.interference import (
    BsmConvention,
    BsmSettings,
    InterferenceError,
    bsm_povm,
    gate_response,
)
from swapsim import swap
from swapsim.qstate import (
    BellKind,
    DensityMatrix,
    QStateError,
    bell_density,
    bell_state,
    fidelity_mixed,
    horodecki_s,
    maximally_mixed,
    tensor,
)
from swapsim.source import NoiseKind, SourceParams, emit_pair, ideal_pair
from swapsim.swap import (
    SwapError,
    classical_bound_check,
    compose,
    control_no_heralding,
    herald,
    predict,
)
from swapsim.qstate import relabel  # noqa: E402

C1C2 = (2 * 0.9369 - 1) * (2 * 0.9267 - 1)


def _pairs():
    return (
        relabel(ideal_pair(), ("X1", "XX1")),
        relabel(ideal_pair(), ("X2", "XX2")),
    )


def test_compose_bell_decomposition():
    rho4 = compose(*_pairs())
    assert rho4.labels == ("X1", "X2", "XX1", "XX2")
    kets = {k: bell_state(k).amplitudes for k in BellKind}
    alpha = 0.5 * sum(np.kron(kets[k], kets[k]) for k in BellKind)
    expected = np.outer(alpha, alpha.conj())
    assert np.max(np.abs(rho4.matrix - expected)) < 1e-12
    assert abs(np.trace(rho4.matrix) - 1) < 1e-14


def test_compose_mixed_inputs():
    quarter1 = maximally_mixed(("X1", "XX1"))
    quarter2 = maximally_mixed(("X2", "XX2"))
    joint = compose(quarter1, quarter2)
    np.testing.assert_allclose(joint.matrix, np.eye(16) / 16, atol=1e-15)


def test_compose_label_collision():
    with pytest.raises((SwapError, QStateError)):
        compose(relabel(ideal_pair(), ("X1", "XX1")), relabel(ideal_pair(), ("X1", "XX2")))


def test_herald_perfect_interference():
    rho4 = compose(*_pairs())
    res = herald(rho4, bsm_povm(1.0, BsmConvention.PSI_PLUS))
    assert abs(res.herald_prob - 0.125) < 1e-15
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        res.rho_ab.matrix, bell_density(BellKind.PSI_PLUS, ("X1", "X2")).matrix, atol=1e-12
    )
    # the physical convention heralds the singlet instead
    res_minus = herald(rho4, bsm_povm(1.0, BsmConvention.PSI_MINUS))
    np.testing.assert_allclose(
        res_minus.rho_ab.matrix, bell_density(BellKind.PSI_MINUS, ("X1", "X2")).matrix, atol=1e-12
    )
    assert res_minus.fidelity == pytest.approx(1.0, abs=1e-12)


def test_herald_distinguishable_limit():
    rho4 = compose(*_pairs())
    res = herald(rho4, bsm_povm(0.0))
    assert abs(res.herald_prob - 0.125) < 1e-15
    assert res.fidelity == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(
        res.rho_ab.matrix, np.diag([0, 0.5, 0.5, 0]).astype(complex), atol=1e-14
    )


def test_herald_ideal_fidelity_is_affine():
    rho4 = compose(*_pairs())
    for i in np.linspace(0, 1, 11):
        res = herald(rho4, bsm_povm(float(i)))
        assert res.fidelity == pytest.approx((1 + i) / 2, abs=1e-14)
        assert abs(res.herald_prob - 0.125) < 1e-15


def test_herald_prob_independent_of_indistinguishability_for_noisy_sources():
    params = SourceParams()
    rho4 = compose(emit_pair(params, 1), emit_pair(params, 2))
    diags = []
    for i in (0.0, 0.3, 0.569, 1.0):
        res = herald(rho4, bsm_povm(float(i)))
        assert abs(res.herald_prob - 0.125) < 1e-14
        diags.append(np.diag(res.rho_ab.matrix).real.copy())
    for d in diags[1:]:
        np.testing.assert_allclose(d, diags[0], atol=1e-14)


def test_heralded_fidelity_affine_for_calibrated_sources():
    params = SourceParams()
    rho4 = compose(emit_pair(params, 1), emit_pair(params, 2))
    grid = np.linspace(0, 1, 9)
    fids = np.array([herald(rho4, bsm_povm(float(i))).fidelity for i in grid])
    coeffs = np.polyfit(grid, fids, 1)
    residual = np.max(np.abs(np.polyval(coeffs, grid) - fids))
    assert residual < 1e-10
    assert coeffs[0] == pytest.approx(C1C2 / 2, abs=1e-10)
    assert coeffs[1] == pytest.approx(0.5, abs=1e-10)


def test_herald_input_validation():
    rho4 = compose(*_pairs())
    wrong_order = tensor(
        relabel(ideal_pair(), ("X1", "XX1")), relabel(ideal_pair(), ("X2", "XX2"))
    )
    with pytest.raises(SwapError):
        herald(wrong_order, bsm_povm(1.0))
    with pytest.raises(SwapError):
        herald(relabel(ideal_pair(), ("X1", "X2")), bsm_povm(1.0))
    # no support on the heralding sector: probability vanishes
    hh = np.zeros(4, dtype=complex)
    hh[0] = 1.0
    product = compose(
        DensityMatrix(np.outer(hh, hh), ("X1", "XX1")),
        DensityMatrix(np.outer(hh, hh), ("X2", "XX2")),
    )
    with pytest.raises(SwapError):
        herald(product, bsm_povm(1.0))


def test_control_no_heralding():
    rho4 = compose(*_pairs())
    control = control_no_heralding(rho4)
    assert control.labels == ("X1", "X2")
    np.testing.assert_allclose(control.matrix, np.eye(4) / 4, atol=1e-14)
    assert fidelity_mixed(control, maximally_mixed(("X1", "X2"))) == pytest.approx(1.0, abs=1e-12)
    assert horodecki_s(control) == pytest.approx(0.0, abs=1e-12)

    params = SourceParams()
    noisy_control = control_no_heralding(compose(emit_pair(params, 1), emit_pair(params, 2)))
    np.testing.assert_allclose(noisy_control.matrix, np.eye(4) / 4, atol=1e-10)


def test_predict_monotone_and_plateau():
    params = SourceParams()
    gates = [20.0, 47.0, 100.0, 200.0, 500.0, 2000.0, math.inf]
    results = predict(params, BsmSettings(), gates)
    fids = [r.fidelity for r in results]
    assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))
    rates = [r.rate_factor for r in results]
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    assert results[-1].fidelity == pytest.approx(0.7122, abs=1e-3)
    assert results[-1].i_eff == pytest.approx(0.569, abs=1e-3)
    # heralding probability carries the gate survival fraction
    for r in results:
        assert r.herald_prob == pytest.approx(0.125 * r.rate_factor, abs=1e-12)


def test_predict_depolarizing_is_distinct():
    params = SourceParams(model=NoiseKind.DEPOLARIZING)
    res = predict(params, BsmSettings(), [math.inf])[0]
    assert res.fidelity == pytest.approx(0.6917, abs=2e-3)


def test_predict_fss_matches_dephasing_values():
    # the phase-diffusion channel is calibrated to the same pair fidelities,
    # so the heralded numbers coincide with the dephasing route
    params = SourceParams(model=NoiseKind.FSS_PHASE_DIFFUSION, t1_x_ns=0.25)
    res = predict(params, BsmSettings(), [math.inf])[0]
    assert res.fidelity == pytest.approx(0.7122, abs=1e-3)
    assert abs(res.herald_prob - 0.125) < 1e-14


def test_predict_gate_validation():
    params, bsm = SourceParams(), BsmSettings()
    for gates in ([0.0], [float("nan")], [47.0, -5.0]):
        with pytest.raises(InterferenceError):
            predict(params, bsm, gates)
    assert len(predict(params, bsm, [])) == 0


def test_predict_range_error_names_the_gate(monkeypatch):
    params, bsm = SourceParams(), BsmSettings()
    gates = [20.0, 47.0, 100.0]

    def inflated_rate(bsm, gates_ps, offsets_ps):
        i_eff, factor = gate_response(bsm, gates_ps, offsets_ps)
        factor[1] = 5.0  # heralding probability 0.125 * 5 > 1/2
        return i_eff, factor

    monkeypatch.setattr(swap, "gate_response", inflated_rate)
    with pytest.raises(SwapError, match=r"^gate 47.0 ps: heralding probability 0.62\d* outside \[0, 1/2\]"):
        predict(params, bsm, gates)


@settings(max_examples=80)
@given(
    kind=st.sampled_from(list(NoiseKind)),
    f1=st.floats(0.55, 1.0),
    f2=st.floats(0.55, 1.0),
    convention=st.sampled_from(list(BsmConvention)),
    intrinsic=st.floats(0.0, 1.0),
    t2_fraction=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    jitter=st.sampled_from([0.0, 1e-3, 5.0, 50.0]),
    gates=st.lists(st.one_of(st.just(math.inf), st.floats(1e-3, 1e4)), min_size=1, max_size=6),
)
def test_predict_equals_per_gate_herald(kind, f1, f2, convention, intrinsic, t2_fraction, jitter, gates):
    # t2_fraction = 1 removes dephasing, so I equals the drawn intrinsic limit.
    params = SourceParams(f1, f2, kind)
    bsm = BsmSettings(convention, t2_xx_ns=0.24 * t2_fraction, jitter_ps=jitter, intrinsic_limit=intrinsic)
    results = predict(params, bsm, gates)
    rho4 = compose(emit_pair(params, 1), emit_pair(params, 2))
    for i in (0.0, 1.0):
        assert abs(herald(rho4, bsm_povm(i, convention)).herald_prob - 0.125) < 1e-14
    assert [r.gate_ps for r in results] == gates
    for r in results:
        assert r.i_eff == pytest.approx(gate_response(bsm, [r.gate_ps])[0][0], rel=1e-15)
        ref = herald(rho4, bsm_povm(r.i_eff, convention))
        assert np.max(np.abs(r.rho_ab.matrix - ref.rho_ab.matrix)) < 1e-12
        assert abs(r.fidelity - ref.fidelity) < 1e-12
        assert abs(r.s_value - ref.s_value) < 1e-12
        assert abs(r.herald_prob - ref.herald_prob * r.rate_factor) < 1e-12
        assert abs(np.trace(r.rho_ab.matrix) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(r.rho_ab.matrix).min() > -1e-12


def test_classical_bound_check():
    rho = bell_density(BellKind.PSI_PLUS, ("X1", "X2"))
    base = herald(compose(*_pairs()), bsm_povm(1.0))
    from dataclasses import replace

    good = replace(base, fidelity=0.81, s_value=2.28)
    check = classical_bound_check(good)
    assert check.witness_passed and check.witness_margin == pytest.approx(0.31)
    assert check.bell_violated and check.bell_margin == pytest.approx(0.28)

    boundary = replace(base, fidelity=0.5, s_value=2.0)
    check = classical_bound_check(boundary)
    assert not check.witness_passed and not check.bell_violated
