"""Two-photon interference physics.

The bosonic mode calculus of a balanced beam splitter as one POVM element per
output occupation pattern (both routes' description of the measurement; the
heralding POVM is one of its elements), and the heralding-measurement
settings with the gate response that maps them to effective
indistinguishability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .qstate import BellKind, PureState, bell_state


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


# The ten unordered two-photon occupations of the output modes (3H, 3V, 4H,
# 4V), as (port, polarization) pairs; polarization 0 = H, 1 = V.
_MODES = ((3, 0), (3, 1), (4, 0), (4, 1))
_FIRST, _SECOND = np.triu_indices(len(_MODES))
PATTERNS = tuple((_MODES[a], _MODES[b]) for a, b in zip(_FIRST, _SECOND))


def pattern_operators(overlap: float, convention: BsmConvention = BsmConvention.PSI_PLUS) -> np.ndarray:
    """(10, 4, 4) POVM elements of the balanced beam splitter, one per ``PATTERNS`` entry.

    They act on the polarizations of photon 1 (port 1) and photon 2 (port 2),
    whose wavepackets overlap by ``overlap``. Port 1 -> (3 + 4)/sqrt2 and port
    2 -> (3 - 4)/sqrt2, so each ordered output pair has amplitude +-1/2.
    Identical photons project onto the symmetrized amplitude (sqrt2 for a
    doubly occupied mode), distinguishable ones sum the two orderings, and
    E = E_dist + overlap (E_ind - E_dist) in exact quarters. PSI_PLUS flips
    the sign of photon 1's V amplitude.
    """
    ov = float(overlap)
    if not 0.0 <= ov <= 1.0:
        raise InterferenceError(f"overlap {ov} outside [0, 1]")
    # Output-mode signs of a photon by polarization, rows (3H, 3V, 4H, 4V).
    port1 = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])
    port2 = port1 * [[1], [1], [-1], [-1]]
    if convention is BsmConvention.PSI_PLUS:
        port1 = port1 * [1, -1]
    # amp[a, b, 2p + q]: photon 1 (polarization p) in mode a, photon 2 (q) in mode b.
    amp = 0.5 * np.einsum("ap,bq->abpq", port1, port2).reshape(4, 4, 4)
    crossed = _FIRST != _SECOND
    orderings = np.stack([amp[_FIRST, _SECOND], amp[_SECOND, _FIRST] * crossed[:, None]])
    e_dist = np.einsum("oki,okj->kij", orderings, orderings)
    symmetric = orderings.sum(axis=0)
    e_ind = np.einsum("k,ki,kj->kij", 2.0 - crossed, symmetric, symmetric)
    return (e_dist + ov * (e_ind - e_dist)).astype(complex)


def bsm_povm(indistinguishability: float, convention: BsmConvention = BsmConvention.PSI_PLUS) -> BsmPovm:
    """The (3H, 4V) coincidence of ``pattern_operators``:
    E = 1/4 [(|HV><HV| + |VH><VH|) +/- I (|HV><VH| + |VH><HV|)]."""
    i = float(indistinguishability)
    return BsmPovm(i, convention, pattern_operators(i, convention)[PATTERNS.index(((3, 0), (4, 1)))])


def convention_bell_state(convention: BsmConvention) -> PureState:
    kind = BellKind.PSI_PLUS if convention is BsmConvention.PSI_PLUS else BellKind.PSI_MINUS
    return bell_state(kind)


_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


# Temporal defaults calibrated so the ungated effective indistinguishability
# equals 0.569 and the 47 ps gated value equals 0.8314 (calibrate_temporal
# with t1 = 0.12 ns, 50 ps jitter).
CALIBRATED_T2_XX_NS = 0.145450
CALIBRATED_INTRINSIC_LIMIT = 0.938878


@dataclass(frozen=True)
class BsmSettings:
    """Heralding-measurement parameters (section [bsm]), read by both routes.

    Biexciton photon lifetime and coherence time (t2 <= 2 t1), per-detector
    jitter (FWHM), coincidence gate (inf = ungated), gating-insensitive
    indistinguishability limit and the announced Bell state.
    """

    convention: BsmConvention = BsmConvention.PSI_PLUS
    t1_xx_ns: float = 0.12
    t2_xx_ns: float = CALIBRATED_T2_XX_NS
    jitter_ps: float = 50.0
    gate_ps: float = math.inf
    intrinsic_limit: float = CALIBRATED_INTRINSIC_LIMIT

    def __post_init__(self):
        # Each bound is written so that NaN fails it.
        if not 0.0 < self.t1_xx_ns < math.inf:
            raise InterferenceError(f"lifetime {self.t1_xx_ns} must be positive and finite")
        if not 0.0 < self.t2_xx_ns <= 2.0 * self.t1_xx_ns + 1e-12:
            raise InterferenceError(
                f"coherence time {self.t2_xx_ns} outside (0, 2*t1] with t1={self.t1_xx_ns}"
            )
        if not 0.0 <= self.jitter_ps < math.inf:
            raise InterferenceError(f"jitter {self.jitter_ps} must be >= 0 and finite")
        if not self.gate_ps > 0.0:
            raise InterferenceError(f"gate width must be positive (inf allowed), got {self.gate_ps}")
        if not 0.0 <= self.intrinsic_limit <= 1.0:
            raise InterferenceError(f"intrinsic limit {self.intrinsic_limit} outside [0, 1]")

    @property
    def dephasing_rate(self) -> float:
        """Pure-dephasing rate 1/t2 - 1/(2 t1), in 1/ns."""
        return 1.0 / self.t2_xx_ns - 1.0 / (2.0 * self.t1_xx_ns)

    @property
    def jitter_sigma_ns(self) -> float:
        """Std dev of one detector's timing jitter."""
        return self.jitter_ps * 1e-3 * _FWHM_TO_SIGMA

    @property
    def diff_jitter_sigma_ns(self) -> float:
        """Std dev of the detection-time difference jitter."""
        return math.sqrt(2.0) * self.jitter_ps * 1e-3 * _FWHM_TO_SIGMA

    def with_gate(self, gate_ps: float) -> "BsmSettings":
        return replace(self, gate_ps=gate_ps)

    def temporal_model(self) -> "BsmSettings":
        # Only perfbench/workloads.py:114 calls this; ROADMAP item 1 deletes it.
        return self


_NARROW_A = 4.0  # half-widths below 4 z take the quadrature branch
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

# W. J. Cody's rational approximations of erfcx (Math. Comp. 23, 631 (1969);
# netlib specfun CALERF), each (numerator, denominator) in its nesting order:
# the leading coefficient, the coefficients multiplied in, the one added last.
_ERFCX_SMALL = (  # |x| <= 0.46875, in x^2: erfcx = exp(x^2) (1 - x P/Q)
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
_ERFCX_MID = (  # 0.46875 < |x| <= 4, in |x|: erfcx = P/Q
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
_ERFCX_BIG = (  # |x| > 4, in 1/x^2: erfcx = (1/sqrt(pi) - P/(Q x^2)) / |x|
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _cody_ratio(t: np.ndarray, coefficients) -> np.ndarray:
    """P(t)/Q(t) by Horner's rule in place, nested as in CALERF."""
    (lead, *num_c, last), (_, *den_c, den_last) = coefficients
    num, den = lead * t, t.copy()
    for cn, cd in zip(num_c, den_c):
        num += cn
        num *= t
        den += cd
        den *= t
    num += last
    den += den_last
    num /= den
    return num


def _erfcx(x: np.ndarray) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x), numpy only.

    CALERF with jint = 2: each of the three |x| ranges evaluates its rational
    function on its own elements. For x < -0.46875 it reflects as
    2 exp(x^2) - erfcx(-x), with exp(x^2) = exp(s^2) exp((x - s)(x + s)) for
    s = x truncated to a multiple of 1/16, so that the rounding of x^2 is not
    magnified. Below x = -26.6 it overflows.
    """
    y = np.abs(x)
    out = np.empty_like(y)
    small, big = y <= 0.46875, y > 4.0
    mid = ~(small | big)
    # Empty ranges are skipped: each numpy call costs about a microsecond even
    # on no elements, and a one-gate response leaves most ranges empty.
    if small.any():
        ys = y[small]
        ys *= ys
        r = _cody_ratio(ys, _ERFCX_SMALL)
        r *= x[small]
        np.subtract(1.0, r, out=r)
        r *= np.exp(ys)
        out[small] = r
    if mid.any():
        out[mid] = _cody_ratio(y[mid], _ERFCX_MID)
    if big.any():
        yb = y[big]
        inv = 1.0 / yb
        inv *= inv  # 0 beyond |x| = 1.3e154, where the correction is below eps anyway
        r = _cody_ratio(inv, _ERFCX_BIG)
        r *= inv
        np.subtract(_INV_SQRT_PI, r, out=r)
        r /= yb
        out[big] = r
    neg = x < -0.46875
    if neg.any():
        xn = x[neg]
        s = np.trunc(xn * 16.0) / 16.0
        e = np.exp((xn - s) * (xn + s))
        s *= s
        e *= np.exp(s)
        e *= 2.0
        e -= out[neg]
        out[neg] = e
    return out


def _emg_terms(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b < a, min(b (b - 2a), 0), [erfcx(a + b) +- erfcx(|a - b|) - 2 erfcx(a)] exp(-a^2)/2
    with + for b < a): the closed form's shared terms, from one erfcx call."""
    e_sum, e_diff, e_a = _erfcx(np.stack(np.broadcast_arrays(a + b, np.abs(a - b), a)))
    below = b < a
    # exp(-a^2) is 0 beyond a = 27.3; the cap keeps a^2 finite.
    tail = np.exp(-np.square(np.minimum(a, 28.0))) / 2.0
    return below, np.minimum(b * (b - 2.0 * a), 0.0), tail * (e_sum + np.where(below, e_diff, -e_diff) - 2.0 * e_a)


def _damped_acceptance(kappa: np.ndarray, half_ns: np.ndarray, z: float) -> np.ndarray:
    """J = int_0^inf exp(-kappa d) A(d) dd for each damping rate (rows) and
    gate half-width h (columns).

    A(d) = [erf((h - d)/z) + erf((h + d)/z)] / 2 is the chance that a time
    difference d passes the jittered gate, z = sqrt(2) sigma. With a = h/z and
    b = kappa z/2, kappa J = erf(a) + [erfcx(a + b) - erfcx(b - a)] exp(-a^2)/2,
    the exponentially modified Gaussian (Grushka, Anal. Chem. 44, 1733 (1972)).
    With erf(a) = 1 - exp(-a^2) erfcx(a) that is 1 + [erfcx(a + b)
    - erfcx(b - a) - 2 erfcx(a)] exp(-a^2)/2 for b >= a, and for b < a,
    without overflow, -expm1(b (b - 2a)) + [erfcx(a + b) + erfcx(a - b)
    - 2 erfcx(a)] exp(-a^2)/2. Both cancel to ~eps/(a b) for small a, so for
    a <= _NARROW_A a Gauss-Legendre rule of the positive, smooth integrand
    gives J = (h/2) sum_k w_k exp(-x_k^2) erfcx(b - x_k), x_k = a t_k. Each
    branch runs on its own gates only, with one erfcx call for all of them.
    """
    kappa = kappa[:, None]
    if z == 0.0:
        return -np.expm1(-kappa * half_ns) / kappa
    a, b = half_ns / z, kappa * z / 2.0
    out = np.repeat(1.0 / kappa, a.size, axis=1)  # the a = inf value
    narrow = a <= _NARROW_A
    wide = ~narrow & np.isfinite(a)
    if narrow.any():
        x = a[narrow][:, None] * _GL_NODES
        terms = np.exp(-x * x) * _erfcx(b[:, :, None] - x) * _GL_WEIGHTS
        out[:, narrow] = half_ns[narrow] / 2.0 * np.sum(terms, axis=-1)
    if wide.any():
        below, exponent, bracket = _emg_terms(a[wide], b)
        out[:, wide] = (np.where(below, -np.expm1(exponent), 1.0) + bracket) / kappa
    return out


def _rejected_share(rate: float, half_ns: np.ndarray, z: float) -> np.ndarray:
    """1 - rate J: the share of the Laplace density of ``rate`` that the
    jittered gate of half-width h rejects.

    It is ``_damped_acceptance``'s closed form without its leading 1, which
    leaves no cancellation at any a: exp(b (b - 2a)) - [erfcx(a + b)
    + erfcx(a - b) - 2 erfcx(a)] exp(-a^2)/2 for b < a, and
    -[erfcx(a + b) - erfcx(b - a) - 2 erfcx(a)] exp(-a^2)/2 otherwise.
    """
    if z == 0.0:
        return np.exp(-rate * half_ns)
    below, exponent, bracket = _emg_terms(half_ns / z, rate * z / 2.0)
    return np.where(below, np.exp(exponent), 0.0) - bracket


def _gated_integrals(bsm: BsmSettings, gates_ps: np.ndarray, offsets_ps=0.0) -> tuple[np.ndarray, np.ndarray]:
    """(numerator, denominator) of the gated average of the coherence kernel
    exp(-2 gamma |d|) over the Laplace density exp(-|d|/t1)/(2 t1) of the
    detection-time difference d, one entry per gate.

    A BSM delay offset delta (one, or one per gate) delays photon 1 as the
    Monte Carlo does. A pair interferes only when both photons are emitted
    after they could meet, which scales the numerator by exp(-|delta|/t1),
    and d's density is shifted by delta. As the jittered acceptance is odd in
    the half-width h, the shifted denominator is
    [den(h + |delta|) + sgn(h - |delta|) den(|h - |delta||)] / 2. Past
    |delta| = h the two terms would cancel, so there it is half the
    difference of the rejected shares at |delta| - h and |delta| + h.
    """
    t1, z = bsm.t1_xx_ns, math.sqrt(2.0) * bsm.diff_jitter_sigma_ns
    half = gates_ps * 1e-3 / 2.0
    num, den = _damped_acceptance(np.array([1.0 / t1 + 2.0 * bsm.dephasing_rate, 1.0 / t1]), half, z) / t1
    shift = np.abs(np.broadcast_to(offsets_ps, half.shape)) * 1e-3
    moved = np.flatnonzero(shift)
    if moved.size:
        h, s = half[moved], shift[moved]
        far, near = h + s, np.abs(h - s)
        inside = _damped_acceptance(np.array([1.0 / t1]), np.concatenate([far, near]), z).reshape(2, -1) / t1
        outside = _rejected_share(1.0 / t1, near, z) - _rejected_share(1.0 / t1, far, z)
        num[moved] *= np.exp(-s / t1)
        den[moved] = np.where(s <= h, inside.sum(axis=0), outside) / 2.0
    return num, den


def gate_response(bsm: BsmSettings, gates_ps, offsets_ps=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Effective indistinguishability and heralding-rate factor at each gate
    width and BSM delay offset (one offset, or one per gate).

    Gates must be positive (inf allowed) and offsets finite; ``bsm``'s own
    gate is ignored.
    """
    gates = np.asarray(gates_ps, dtype=float).reshape(-1)
    if not np.all(gates > 0.0):
        raise InterferenceError("gate width must be positive (inf allowed)")
    offsets = np.broadcast_to(np.asarray(offsets_ps, dtype=float), gates.shape)
    if not np.all(np.isfinite(offsets)):
        raise InterferenceError("BSM delay offset must be finite")
    num, den = _gated_integrals(bsm, gates, offsets)
    i_eff = np.full(gates.shape, float(bsm.intrinsic_limit))
    # Without dephasing or offset the kernel is 1 and I is the limit itself.
    coherent = (offsets != 0.0) | (bsm.dephasing_rate > 1e-15)
    np.divide(bsm.intrinsic_limit * num, den, out=i_eff, where=coherent & (den > 0.0))
    return i_eff, np.where(np.isinf(gates), 1.0, np.clip(den, 0.0, 1.0))


# Only perfbench/workloads.py:115 calls this; ROADMAP item 1 deletes it.
def effective_indistinguishability(bsm: BsmSettings, intrinsic_limit: float) -> float:
    """Gate-dependent indistinguishability.

    Averages the pure-dephasing coherence kernel exp(-2*gamma*|t1-t2|) over
    detection-time pairs accepted by the (jitter-smeared) gate, scaled by the
    gating-insensitive intrinsic limit. Non-increasing in gate width.
    ``intrinsic_limit`` may only repeat ``bsm.intrinsic_limit``.
    """
    if intrinsic_limit != bsm.intrinsic_limit:
        raise InterferenceError(f"intrinsic limit {intrinsic_limit} differs from the settings' {bsm.intrinsic_limit}")
    return float(gate_response(bsm, [bsm.gate_ps])[0][0])


def calibrate_temporal(
    i_ungated: float, i_gated: float, gate_ps: float, bsm: BsmSettings = BsmSettings()
) -> BsmSettings:
    """Solve (t2, intrinsic_limit) so the gate response hits two indistinguishability targets.

    Returns ``bsm`` with the coherence time and intrinsic limit such that the
    ungated effective indistinguishability equals ``i_ungated`` and the value
    at ``gate_ps`` equals ``i_gated``; lifetime, jitter and the rest come from
    ``bsm``.
    """
    if not 0.0 < i_ungated < i_gated <= 1.0:
        raise InterferenceError("targets must satisfy 0 < ungated < gated <= 1")

    def response(t2: float) -> np.ndarray:
        return gate_response(replace(bsm, t2_xx_ns=t2, intrinsic_limit=1.0), [math.inf, gate_ps])[0]

    def ratio_gap(t2: float) -> float:
        r_inf, r_gate = response(t2)
        return r_inf / r_gate - i_ungated / i_gated

    # The gap rises with t2: bisect to a width of 1e-12 ns or until a midpoint is an end.
    lo, hi = 1e-4 * bsm.t1_xx_ns, 2.0 * bsm.t1_xx_ns
    if ratio_gap(lo) > 0.0 or ratio_gap(hi) < 0.0:
        raise InterferenceError("targets are unreachable for this lifetime/jitter")
    while hi - lo > 1e-12 and lo < (mid := (lo + hi) / 2.0) < hi:
        lo, hi = (mid, hi) if ratio_gap(mid) < 0.0 else (lo, mid)
    t2 = (lo + hi) / 2.0
    intrinsic = i_ungated / float(response(t2)[0])
    if intrinsic > 1.0 + 1e-9:
        raise InterferenceError(f"targets require intrinsic limit {intrinsic:.4f} > 1")
    return replace(bsm, t2_xx_ns=t2, intrinsic_limit=min(intrinsic, 1.0))
