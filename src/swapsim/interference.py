"""Two-photon interference physics.

The bosonic mode calculus for a balanced beam splitter (ground truth), the
closed-form heralding POVM parameterized by indistinguishability, the
Hong-Ou-Mandel observables, and the temporal model mapping detection gating
to effective indistinguishability.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf, erfcx

from .qstate import BellKind, PureState, QStateError, bell_state

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_POL_INDEX = {"H": 0, "V": 1}


class InterferenceError(ValueError):
    """Invalid interference parameters."""


class BsmConvention(Enum):
    """Which Bell state a heralding coincidence is taken to announce.

    The bare mode calculus for cross-output H/V coincidences selects PSI_MINUS;
    PSI_PLUS is the same measurement after a fixed local phase flip on one
    input arm (the retarder compensation applied in practice).
    """

    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"


@dataclass(frozen=True)
class BsmPovm:
    """Heralding-coincidence POVM element on the two interfering photons."""

    indistinguishability: float
    convention: BsmConvention
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        if float(evals[0]) < -1e-12 or float(evals[-1]) > 1.0 + 1e-12:
            raise InterferenceError("POVM element violates 0 <= E <= 1")
        if abs(float(np.real(np.trace(mat))) - 0.5) > 1e-12:
            raise InterferenceError("POVM element must have trace 1/2")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def bsm_povm(indistinguishability: float, convention: BsmConvention = BsmConvention.PSI_PLUS) -> BsmPovm:
    """E = 1/4 [(|HV><HV| + |VH><VH|) +/- I (|HV><VH| + |VH><HV|)]."""
    i = float(indistinguishability)
    if not 0.0 <= i <= 1.0:
        raise InterferenceError(f"indistinguishability {i} outside [0, 1]")
    sign = 1.0 if convention is BsmConvention.PSI_PLUS else -1.0
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = mat[2, 2] = 0.25
    mat[1, 2] = mat[2, 1] = sign * i / 4.0
    return BsmPovm(i, convention, mat)


def convention_bell_state(convention: BsmConvention) -> PureState:
    kind = BellKind.PSI_PLUS if convention is BsmConvention.PSI_PLUS else BellKind.PSI_MINUS
    return bell_state(kind)


def beamsplitter_coincidence(state: PureState, pol1: str, pol2: str, overlap: float) -> float:
    """Cross-output coincidence probability behind polarizers, by mode calculus.

    The photon entering port 1 occupies wavepacket w0; the port-2 photon is
    sqrt(overlap)*w0 + sqrt(1-overlap)*w1 with w1 orthogonal. Input creation
    operators are expanded over the output ports of a balanced splitter and
    the coincidence amplitude is collected per output wavepacket pair.
    """
    if state.n_qubits != 2:
        raise QStateError("beamsplitter input must be a two-photon polarization state")
    if pol1 not in _POL_INDEX or pol2 not in _POL_INDEX:
        raise InterferenceError(f"polarizers must be 'H' or 'V', got {pol1!r}, {pol2!r}")
    ov = float(overlap)
    if not 0.0 <= ov <= 1.0:
        raise InterferenceError(f"overlap {ov} outside [0, 1]")
    c = state.amplitudes.reshape(2, 2)
    p1, p2 = _POL_INDEX[pol1], _POL_INDEX[pol2]
    packet_amps = ((0, math.sqrt(ov)), (1, math.sqrt(1.0 - ov)))
    # port 1 -> (out3 + out4)/sqrt2, port 2 -> (out3 - out4)/sqrt2
    amplitudes: dict[tuple[int, int], complex] = defaultdict(complex)
    for p in (0, 1):
        for q in (0, 1):
            cpq = c[p, q]
            if cpq == 0:
                continue
            for out1, s1 in ((3, _SQRT_HALF), (4, _SQRT_HALF)):
                for out2, s2 in ((3, _SQRT_HALF), (4, -_SQRT_HALF)):
                    for w, aw in packet_amps:
                        modes = ((out1, p, 0), (out2, q, w))
                        term = cpq * s1 * s2 * aw
                        hit3 = [m for m in modes if m[0] == 3 and m[1] == p1]
                        hit4 = [m for m in modes if m[0] == 4 and m[1] == p2]
                        if len(hit3) == 1 and len(hit4) == 1 and hit3[0] is not hit4[0]:
                            amplitudes[(hit3[0][2], hit4[0][2])] += term
    return float(sum(abs(a) ** 2 for a in amplitudes.values()))


def hom_coincidence(indistinguishability: float, copolarized: bool) -> float:
    """Normalized zero-delay coincidence: (1-I)/2 co-polarized, 1/2 crossed."""
    i = float(indistinguishability)
    if not 0.0 <= i <= 1.0:
        raise InterferenceError(f"indistinguishability {i} outside [0, 1]")
    return (1.0 - i) / 2.0 if copolarized else 0.5


def hom_visibility(indistinguishability: float) -> float:
    """V = 1 - co/cross; equals the indistinguishability in this model."""
    co = hom_coincidence(indistinguishability, True)
    cross = hom_coincidence(indistinguishability, False)
    return 1.0 - co / cross


_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class TemporalModel:
    """Wavepacket and detection-timing parameters of the interfering photons."""

    t1_ns: float = 0.12           # emitter lifetime of the interfering photons
    t2_ns: float = 0.24           # coherence time, t2 <= 2*t1
    jitter_fwhm_ps: float = 50.0  # per-detector timing resolution
    gate_ps: float = math.inf     # coincidence gate width (inf = ungated)

    def __post_init__(self):
        if self.t1_ns <= 0.0:
            raise InterferenceError(f"lifetime {self.t1_ns} must be positive")
        if not 0.0 < self.t2_ns <= 2.0 * self.t1_ns + 1e-12:
            raise InterferenceError(
                f"coherence time {self.t2_ns} outside (0, 2*t1] with t1={self.t1_ns}"
            )
        if self.jitter_fwhm_ps < 0.0:
            raise InterferenceError("jitter must be >= 0")
        if not (self.gate_ps > 0.0):
            raise InterferenceError("gate width must be positive (inf allowed)")

    @property
    def dephasing_rate(self) -> float:
        """Pure-dephasing rate 1/t2 - 1/(2 t1), in 1/ns."""
        return 1.0 / self.t2_ns - 1.0 / (2.0 * self.t1_ns)

    @property
    def diff_jitter_sigma_ns(self) -> float:
        """Std dev of the detection-time difference jitter."""
        return math.sqrt(2.0) * self.jitter_fwhm_ps * 1e-3 * _FWHM_TO_SIGMA

    def with_gate(self, gate_ps: float) -> "TemporalModel":
        return replace(self, gate_ps=gate_ps)


# Temporal defaults calibrated so the ungated effective indistinguishability
# equals 0.569 and the 47 ps gated value equals 0.8314 (calibrate_temporal
# with t1 = 0.12 ns, 50 ps jitter).
CALIBRATED_T2_XX_NS = 0.145450
CALIBRATED_INTRINSIC_LIMIT = 0.938878


@dataclass(frozen=True)
class BsmSettings:
    """Heralding-measurement parameters (section [bsm]), read by both routes.

    Biexciton photon lifetime and coherence time, per-detector jitter (FWHM),
    coincidence gate, gating-insensitive indistinguishability limit and the
    announced Bell state.
    """

    convention: BsmConvention = BsmConvention.PSI_PLUS
    t1_xx_ns: float = 0.12
    t2_xx_ns: float = CALIBRATED_T2_XX_NS
    jitter_ps: float = 50.0
    gate_ps: float = math.inf
    intrinsic_limit: float = CALIBRATED_INTRINSIC_LIMIT

    def __post_init__(self):
        self.temporal_model()  # lifetime, coherence time, jitter and gate checks
        if not 0.0 <= self.intrinsic_limit <= 1.0:
            raise InterferenceError(f"intrinsic limit {self.intrinsic_limit} outside [0, 1]")

    def temporal_model(self) -> TemporalModel:
        return TemporalModel(self.t1_xx_ns, self.t2_xx_ns, self.jitter_ps, self.gate_ps)


_NARROW_A = 4.0  # half-widths below 4 z take the quadrature branch
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _damped_acceptance(kappa: float, half_ns: np.ndarray, z: float) -> np.ndarray:
    """J = int_0^inf exp(-kappa d) A(d) dd for each gate half-width h.

    A(d) = [erf((h - d)/z) + erf((h + d)/z)] / 2 is the chance that a time
    difference d passes the jittered gate, z = sqrt(2) sigma. With a = h/z and
    b = kappa z/2, kappa J = erf(a) + [erfcx(a + b) - erfcx(b - a)] exp(-a^2)/2,
    the exponentially modified Gaussian (Grushka, Anal. Chem. 44, 1733 (1972)),
    written for b < a without overflow as -expm1(b (b - 2a)) + [erfcx(a + b)
    + erfcx(a - b) - 2 erfcx(a)] exp(-a^2)/2. Both cancel to ~eps/(a b) for
    small a, so for a <= _NARROW_A a Gauss-Legendre rule of the positive,
    smooth integrand gives J = (h/2) sum_k w_k exp(-x_k^2) erfcx(b - x_k),
    x_k = a t_k.
    """
    if z == 0.0:
        return -np.expm1(-kappa * half_ns) / kappa
    a, b = half_ns / z, kappa * z / 2.0
    x = np.minimum(a, _NARROW_A)[:, None] * _GL_NODES
    # Every branch runs on every gate; np.where drops the ones that overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        narrow = half_ns / 2.0 * np.sum(np.exp(-x * x) * erfcx(b - x) * _GL_WEIGHTS, axis=-1)
        tail = np.exp(-a * a) / 2.0
        above = erf(a) + tail * (erfcx(a + b) - erfcx(b - a))
        below = -np.expm1(b * (b - 2.0 * a)) + tail * (erfcx(a + b) + erfcx(a - b) - 2.0 * erfcx(a))
    wide = np.where(b >= a, above, below) / kappa
    return np.where(np.isinf(a), 1.0 / kappa, np.where(a <= _NARROW_A, narrow, wide))


def _gated_integrals(model: TemporalModel, gates_ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(numerator, denominator) of the gated average of the coherence kernel
    exp(-2 gamma |d|) over the Laplace density exp(-|d|/t1)/(2 t1) of the
    detection-time difference d, one entry per gate."""
    t1, z = model.t1_ns, math.sqrt(2.0) * model.diff_jitter_sigma_ns
    half = gates_ps * 1e-3 / 2.0
    num = _damped_acceptance(1.0 / t1 + 2.0 * model.dephasing_rate, half, z) / t1
    return num, _damped_acceptance(1.0 / t1, half, z) / t1


def gate_response(
    model: TemporalModel, gates_ps, intrinsic_limit: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Effective indistinguishability and heralding-rate factor at each gate width.

    Gates must be positive (inf allowed); ``model``'s own gate is ignored.
    """
    if not 0.0 <= intrinsic_limit <= 1.0:
        raise InterferenceError(f"intrinsic limit {intrinsic_limit} outside [0, 1]")
    gates = np.asarray(gates_ps, dtype=float).reshape(-1)
    if not np.all(gates > 0.0):
        raise InterferenceError("gate width must be positive (inf allowed)")
    num, den = _gated_integrals(model, gates)
    i_eff = np.full(gates.shape, float(intrinsic_limit))
    if model.dephasing_rate > 1e-15:
        np.divide(intrinsic_limit * num, den, out=i_eff, where=den > 0.0)
    return i_eff, np.where(np.isinf(gates), 1.0, np.clip(den, 0.0, 1.0))


def effective_indistinguishability(model: TemporalModel, intrinsic_limit: float = 1.0) -> float:
    """Gate-dependent indistinguishability.

    Averages the pure-dephasing coherence kernel exp(-2*gamma*|t1-t2|) over
    detection-time pairs accepted by the (jitter-smeared) gate, scaled by the
    gating-insensitive intrinsic limit. Non-increasing in gate width.
    """
    return float(gate_response(model, [model.gate_ps], intrinsic_limit)[0][0])


def heralding_rate_factor(model: TemporalModel) -> float:
    """Fraction of coincidences whose time difference survives the gate."""
    return float(gate_response(model, [model.gate_ps])[1][0])


def calibrate_temporal(
    i_ungated: float,
    i_gated: float,
    gate_ps: float,
    t1_ns: float = 0.12,
    jitter_fwhm_ps: float = 50.0,
) -> tuple[TemporalModel, float]:
    """Solve (t2, intrinsic_limit) so the model hits two indistinguishability targets.

    Returns an ungated model plus the intrinsic limit such that the ungated
    effective indistinguishability equals ``i_ungated`` and the value at
    ``gate_ps`` equals ``i_gated``.
    """
    if not 0.0 < i_ungated < i_gated <= 1.0:
        raise InterferenceError("targets must satisfy 0 < ungated < gated <= 1")

    def ratio_gap(t2: float) -> float:
        r_inf, r_gate = gate_response(TemporalModel(t1_ns, t2, jitter_fwhm_ps), [math.inf, gate_ps])[0]
        return r_inf / r_gate - i_ungated / i_gated

    lo, hi = 1e-4 * t1_ns, 2.0 * t1_ns
    if ratio_gap(hi) < 0.0:
        raise InterferenceError("gated target is unreachable for this lifetime/jitter")
    t2 = float(brentq(ratio_gap, lo, hi, xtol=1e-12))
    base = TemporalModel(t1_ns, t2, jitter_fwhm_ps, math.inf)
    intrinsic = i_ungated / effective_indistinguishability(base, 1.0)
    if intrinsic > 1.0 + 1e-9:
        raise InterferenceError(f"targets require intrinsic limit {intrinsic:.4f} > 1")
    return base, min(intrinsic, 1.0)
