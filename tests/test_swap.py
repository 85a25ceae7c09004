import math

import numpy as np
import pytest

from swapsim.interference import BsmConvention, TemporalModel, bsm_povm
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
    temporal = TemporalModel(0.12, 0.145450, 50.0)
    gates = [20.0, 47.0, 100.0, 200.0, 500.0, 2000.0, math.inf]
    results = predict(params, temporal, gates, intrinsic_limit=0.938878)
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
    temporal = TemporalModel(0.12, 0.145450, 50.0)
    res = predict(params, temporal, [math.inf], intrinsic_limit=0.938878)[0]
    assert res.fidelity == pytest.approx(0.6917, abs=2e-3)


def test_predict_fss_matches_dephasing_values():
    # the phase-diffusion channel is calibrated to the same pair fidelities,
    # so the heralded numbers coincide with the dephasing route
    params = SourceParams(model=NoiseKind.FSS_PHASE_DIFFUSION, t1_x_ns=0.25)
    temporal = TemporalModel(0.12, 0.145450, 50.0)
    res = predict(params, temporal, [math.inf], intrinsic_limit=0.938878)[0]
    assert res.fidelity == pytest.approx(0.7122, abs=1e-3)
    assert abs(res.herald_prob - 0.125) < 1e-14


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
