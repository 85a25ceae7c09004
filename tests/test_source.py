import math

import numpy as np
import pytest
from scipy.integrate import quad

from swapsim.qstate import (
    BellKind,
    bell_state,
    fidelity_pure,
    horodecki_s,
    maximally_mixed,
    partial_trace,
)
from swapsim.source import (
    HBAR_UEV_NS,
    NoiseKind,
    NoiseModel,
    SourceError,
    SourceParams,
    apply_noise,
    calibrate,
    dephasing,
    depolarizing,
    emit_pair,
    fss_coherence_factor,
    fss_phase_diffusion,
    ideal_pair,
)

PHI = bell_state(BellKind.PHI_PLUS)


def test_ideal_pair():
    rho = ideal_pair()
    assert rho.labels == ("X", "XX")
    assert fidelity_pure(rho, PHI) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(partial_trace(rho, ("X",)).matrix, np.eye(2) / 2, atol=1e-15)
    assert horodecki_s(rho) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_dephasing_identity_and_full_mixing():
    rho = ideal_pair()
    same = apply_noise(rho, dephasing(0.0))
    np.testing.assert_allclose(same.matrix, rho.matrix, atol=1e-15)
    mixed = apply_noise(rho, depolarizing(1.0))
    np.testing.assert_allclose(mixed.matrix, np.eye(4) / 4, atol=1e-15)


def test_fss_factor_matches_quadrature():
    # oracle: averaged phase over an exponential emission-time distribution
    for fss, t1 in ((0.4, 0.25), (1.0, 0.25), (0.4, 0.11), (3.0, 0.5)):
        w = fss / HBAR_UEV_NS

        def re(t):
            return math.exp(-t / t1) / t1 * math.cos(w * t)

        def im(t):
            return math.exp(-t / t1) / t1 * math.sin(w * t)

        mean = complex(quad(re, 0, np.inf)[0], quad(im, 0, np.inf)[0])
        assert fss_coherence_factor(fss, t1) == pytest.approx(abs(mean), abs=1e-9)

    rho = apply_noise(ideal_pair(), fss_phase_diffusion(0.4, 0.25))
    factor = fss_coherence_factor(0.4, 0.25)
    assert rho.matrix[0, 3].real == pytest.approx(factor / 2, abs=1e-12)


def test_diagonals_preserved_and_depolarizing_monotone():
    rho = ideal_pair()
    for model in (dephasing(0.3), fss_phase_diffusion(0.7, 0.2)):
        out = apply_noise(rho, model)
        np.testing.assert_allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-15)
    prev_gap = math.inf
    for lam in np.linspace(0.0, 1.0, 11):
        out = apply_noise(rho, depolarizing(float(lam)))
        gap = float(np.max(np.abs(np.diag(out.matrix).real - 0.25)))
        assert gap <= prev_gap + 1e-15
        prev_gap = gap


def _choi(model: NoiseModel) -> np.ndarray:
    """Choi matrix assembled by driving apply_noise on pure states only.

    Matrix units are recovered by the polarization identity
    |i><j| = P_plus + i*P_imag - (1+i)(P_i + P_j)/2, so the channel is probed
    exactly through its public state-to-state interface.
    """
    from swapsim.qstate import DensityMatrix

    basis = np.eye(4, dtype=complex)

    def channel(mat: np.ndarray) -> np.ndarray:
        return apply_noise(DensityMatrix(mat, ("X", "XX")), model).matrix

    outputs = {}
    for i in range(4):
        outputs[(i, i)] = channel(np.outer(basis[i], basis[i]))
    choi = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            if i == j:
                out = outputs[(i, i)]
            else:
                plus = (basis[i] + basis[j]) / np.sqrt(2)
                imag = (basis[i] + 1j * basis[j]) / np.sqrt(2)
                out = (
                    channel(np.outer(plus, plus.conj()))
                    + 1j * channel(np.outer(imag, imag.conj()))
                    - (1 + 1j) * (outputs[(i, i)] + outputs[(j, j)]) / 2
                )
            choi += np.kron(np.outer(basis[i], basis[j]), out)
    return choi


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_channels_are_cptp(kind):
    for strength in np.linspace(0.0, 1.0, 6):
        if kind is NoiseKind.FSS_PHASE_DIFFUSION:
            model = fss_phase_diffusion(float(strength) * 5.0, 0.25)
        elif kind is NoiseKind.DEPHASING:
            model = dephasing(float(strength))
        else:
            model = depolarizing(float(strength))
        choi = _choi(model)
        evals = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
        assert evals.min() > -1e-10  # completely positive
        # trace preservation: partial trace of Choi over output equals identity
        t = choi.reshape(4, 4, 4, 4)
        tp = np.einsum("ikjk->ij", t)
        np.testing.assert_allclose(tp, np.eye(4), atol=1e-12)


def test_calibrate_closed_forms():
    assert calibrate(0.9369, NoiseKind.DEPHASING).strength == pytest.approx(0.1262, abs=1e-10)
    assert calibrate(1.0, NoiseKind.DEPOLARIZING).strength == pytest.approx(0.0, abs=1e-14)
    assert calibrate(0.9267, NoiseKind.DEPOLARIZING).strength == pytest.approx(
        0.09773, abs=5e-6
    )


def test_calibrate_round_trip():
    targets = [0.51, 0.7, 0.9267, 0.9369, 0.99, 1.0]
    for kind in NoiseKind:
        for f in targets:
            if kind is not NoiseKind.DEPOLARIZING and f < 0.5:
                continue
            model = calibrate(f, kind)
            out = apply_noise(ideal_pair(), model)
            # The phase-diffusion splitting has a closed form too, exact to rounding.
            tolerance = 1e-12 if kind is NoiseKind.FSS_PHASE_DIFFUSION else 1e-6
            assert fidelity_pure(out, PHI) == pytest.approx(f, abs=tolerance)


def test_calibrate_unreachable():
    with pytest.raises(SourceError):
        calibrate(0.4, NoiseKind.DEPHASING)
    with pytest.raises(SourceError):
        calibrate(0.5, NoiseKind.FSS_PHASE_DIFFUSION)
    with pytest.raises(SourceError):
        calibrate(0.25, NoiseKind.DEPOLARIZING)
    with pytest.raises(SourceError):
        calibrate(1.2, NoiseKind.DEPHASING)


def test_noise_model_validation():
    with pytest.raises(SourceError):
        dephasing(1.5)
    with pytest.raises(SourceError):
        NoiseModel(NoiseKind.FSS_PHASE_DIFFUSION, fss_uev=-1.0)
    with pytest.raises(SourceError):
        NoiseModel(NoiseKind.FSS_PHASE_DIFFUSION, t1_x_ns=0.0)


def test_emit_pair():
    params = SourceParams()
    one = emit_pair(params, 1)
    two = emit_pair(params, 2)
    assert one.labels == ("X1", "XX1")
    assert two.labels == ("X2", "XX2")
    assert fidelity_pure(one, PHI) == pytest.approx(0.9369, abs=1e-6)
    assert fidelity_pure(two, PHI) == pytest.approx(0.9267, abs=1e-6)

    perfect = SourceParams(f1=1.0, f2=1.0)
    np.testing.assert_allclose(emit_pair(perfect, 1).matrix, ideal_pair().matrix, atol=1e-12)
    with pytest.raises(SourceError):
        emit_pair(params, 3)


def test_source_params_validation():
    with pytest.raises(SourceError):
        SourceParams(f1=0.2)
    with pytest.raises(SourceError):
        SourceParams(t1_x_ns=0.0)


def test_dephased_pair_marginals_stay_mixed():
    out = apply_noise(ideal_pair(), calibrate(0.9369, NoiseKind.DEPHASING))
    np.testing.assert_allclose(partial_trace(out, ("X",)).matrix, np.eye(2) / 2, atol=1e-14)
    np.testing.assert_allclose(partial_trace(out, ("XX",)).matrix, np.eye(2) / 2, atol=1e-14)
