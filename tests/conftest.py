"""Shared test helpers: independent oracles kept separate from the library code."""
from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from hypothesis import settings
from scipy.special import erf

from swapsim import mc
from swapsim.interference import InterferenceError
from swapsim.qstate import PureState, QStateError, project_to_physical
from swapsim.tomography import TomographyRun, linear_inversion

# Property tests replay the same examples on every run and never time out on
# a slow or shared machine.
settings.register_profile("swapsim", deadline=None, derandomize=True)
settings.load_profile("swapsim")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)


def random_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Haar-ish random full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def pauli_expectations(rho: np.ndarray) -> np.ndarray:
    t = np.empty((3, 3))
    for i, si in enumerate(PAULIS):
        for j, sj in enumerate(PAULIS):
            t[i, j] = float(np.real(np.trace(rho @ np.kron(si, sj))))
    return t


def chsh_angle_scan(rho: np.ndarray, n_starts: int = 32, iters: int = 80, seed: int = 0) -> float:
    """Brute-force CHSH maximization over measurement directions.

    Random measurement-frame starts refined by alternating exact one-side
    updates; never touches the correlation-matrix eigenvalue formula.
    """
    t = pauli_expectations(rho)
    rng = np.random.default_rng(seed)

    def unit(v):
        n = np.linalg.norm(v)
        return v / n if n > 1e-12 else None

    best = 0.0
    starts = [rng.normal(size=(4, 3)) for _ in range(n_starts)]
    starts.append(np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0, 1.0], [1.0, 0, 0]]))
    for raw in starts:
        vecs = [unit(v) if unit(v) is not None else np.array([0, 0, 1.0]) for v in raw]
        a, a2, b, b2 = vecs
        s = 0.0
        for _ in range(iters):
            ua, va = unit(t @ (b + b2)), unit(t @ (b - b2))
            a = ua if ua is not None else a
            a2 = va if va is not None else a2
            ub, vb = unit(t.T @ (a + a2)), unit(t.T @ (a - a2))
            b = ub if ub is not None else b
            b2 = vb if vb is not None else b2
            s_new = a @ t @ b + a @ t @ b2 + a2 @ t @ b - a2 @ t @ b2
            if abs(s_new - s) < 1e-13:
                s = s_new
                break
            s = s_new
        best = max(best, abs(s))
    return float(best)


_SQRT_HALF = 1.0 / math.sqrt(2.0)
_POL_INDEX = {"H": 0, "V": 1}


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


def povm_from_mode_calculus(
    overlap: float, premultiply: np.ndarray | None = None, pols: tuple[str, str] = ("H", "V")
) -> np.ndarray:
    """Reconstruct a cross-output POVM element from coincidence probabilities.

    ``pols`` are the polarizers behind outputs 3 and 4; the default is the
    heralding element. Diagonals come from basis kets, off-diagonals from +1
    and +i superpositions; ``premultiply`` optionally rotates the inputs first
    (used for the compensated sign convention).
    """

    def prob(vec: np.ndarray) -> float:
        if premultiply is not None:
            vec = premultiply @ vec
        return beamsplitter_coincidence(PureState(vec), *pols, overlap)

    basis = np.eye(4, dtype=complex)
    e = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        e[k, k] = prob(basis[k])
    for k in range(4):
        for l in range(k + 1, 4):
            plus = (basis[k] + basis[l]) / np.sqrt(2)
            imag = (basis[k] + 1j * basis[l]) / np.sqrt(2)
            re = prob(plus) - (e[k, k].real + e[l, l].real) / 2
            im = (e[k, k].real + e[l, l].real) / 2 - prob(imag)
            e[k, l] = re + 1j * im
            e[l, k] = re - 1j * im
    return e


def gate_acceptance(delta_ns: float, bsm) -> float:
    """Probability that a true time difference passes the jittered gate of ``bsm``."""
    if math.isinf(bsm.gate_ps):
        return 1.0
    half = bsm.gate_ps * 1e-3 / 2.0
    sigma = bsm.diff_jitter_sigma_ns
    if sigma == 0.0:
        return 1.0 if abs(delta_ns) <= half else 0.0
    z = sigma * math.sqrt(2.0)
    return 0.5 * (erf((half - delta_ns) / z) + erf((half + delta_ns) / z))


def quadrature_gated_integrals(bsm, offset_ps: float = 0.0) -> tuple[float, float]:
    """(numerator, denominator) of the gated coherence average by adaptive quadrature.

    The denominator integrates the detection-time difference density, the
    Laplace density exp(-|d - delta|/t1)/(2 t1) shifted by the BSM delay
    offset delta, times ``gate_acceptance``, over the whole line. The
    numerator integrates the unshifted density times the coherence kernel
    exp(-2 gamma |d|) and the acceptance, scaled by exp(-|delta|/t1): the
    chance that both photons are emitted late enough to meet. The segments
    break at the density's cusp and at +-half +- {0, 1, 3, 6, 12} sigma, so
    the acceptance edges always sit on segment boundaries and ``quad``
    cannot step over them. The integral stops at 60 t1 from the cusp or 12
    sigma past the edges, where the integrand is below double precision of
    the total.
    """
    from scipy.integrate import IntegrationWarning, quad

    t1, gamma = bsm.t1_xx_ns, bsm.dephasing_rate
    sigma = bsm.diff_jitter_sigma_ns
    half = bsm.gate_ps * 1e-3 / 2.0
    delta = offset_ps * 1e-3

    def integral(rate: float, cusp: float) -> float:
        lo, hi = cusp - 60.0 * t1, cusp + 60.0 * t1
        points = {cusp}
        if not math.isinf(half):
            lo, hi = max(lo, -half - 12.0 * sigma), min(hi, half + 12.0 * sigma)
            points |= {e * half + s * k * sigma for k in (0, 1, 3, 6, 12) for s in (-1.0, 1.0) for e in (-1.0, 1.0)}
        edges = [lo] + sorted(p for p in points if lo < p < hi) + [hi]

        def integrand(d: float) -> float:
            return math.exp(-rate * abs(d - cusp)) * gate_acceptance(d, bsm)

        # On segments a few sigma wide quad flags round-off in its own error
        # estimate long before it matters to the sum, which matches a 30-digit
        # evaluation to about 1e-12.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            parts = [quad(integrand, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:]) if a < b]
        return sum(parts) / (2.0 * t1)

    return math.exp(-abs(delta) / t1) * integral(1.0 / t1 + 2.0 * gamma, 0.0), integral(1.0 / t1, delta)


def pair_deltas(ta: np.ndarray, tb: np.ndarray, span_ps: float) -> np.ndarray:
    """All-pairs oracle: every tb[j] - ta[i] with -span_ps <= tb[j] - ta[i] < span_ps (int ps).

    Materialises every pair at once, as the coincidence analyses did before
    they were streamed, and tests each delta against the float span exactly.
    """
    reach = int(span_ps) + 1
    lo = np.searchsorted(tb, ta - reach)
    hi = np.searchsorted(tb, ta + reach + 1)
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ai = np.repeat(np.arange(ta.size), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    bi = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
    deltas = tb[bi] - ta[ai]
    return deltas[(deltas >= -span_ps) & (deltas < span_ps)]


def all_pairs_coincidences(ta, tb, span_ps, offsets_ps, half_ps, bin_ps):
    """Histogram and per-offset window counts from ``pair_deltas``, all in ps;
    a window is [offset - half_ps, offset + half_ps], both ends computed in float."""
    deltas = pair_deltas(ta, tb, span_ps)
    nbins = 2 * int(span_ps / bin_ps) + 1
    hist, edges = np.histogram(deltas, bins=nbins, range=(-span_ps, span_ps))
    windows = [int(np.count_nonzero((deltas >= off - half_ps) & (deltas <= off + half_ps))) for off in offsets_ps]
    return (edges[:-1] + edges[1:]) / 2.0, hist, windows


def loop_fourfold(b1, b2, alice, bob, gate_ps: float, mzi_ps: int, x_window_ps: int) -> int:
    """Oracle for ``mc.fourfold_coincidences``: a double loop over BSM pairs of int ps times.

    A pair (t1, t2) counts when t1 - half <= t2 < t1 + half, and an analyzer
    event t hits the anchor c when c - x_window_ps <= t < c + x_window_ps;
    Alice's anchor is (t1 + t2) / 2 - mzi_ps and Bob's is (t1 + t2) / 2.
    Python compares ints with floats exactly, and (t1 + t2) / 2 is exact.
    """
    half = gate_ps / 2.0
    alice, bob = alice.tolist(), bob.tolist()

    def hit(times, c):
        return any(c - x_window_ps <= t < c + x_window_ps for t in times)

    count = 0
    for t1 in b1.tolist():
        for t2 in b2.tolist():
            if t1 - half <= t2 < t1 + half:
                t_bsm = (t1 + t2) / 2.0
                count += hit(alice, t_bsm - mzi_ps) and hit(bob, t_bsm)
    return count


def fair_bits(rng, n: int) -> np.ndarray:
    """n fair coins: the bits of ceil(n / 8) random bytes, most significant first."""
    packed = rng.integers(0, 256, (n + 7) // 8, dtype=np.uint8)
    i = np.arange(n)
    return ((packed[i // 8] >> (7 - i % 8)) & 1).astype(bool)


def full_array_chunk_hbt(config, start: int, n: int, rng) -> dict[str, np.ndarray]:
    """Oracle for ``mc._chunk_hbt``: the same draws, every intermediate a full array."""
    base = (start + np.arange(n, dtype=float)) * config.period_ns
    times = []
    for pulse_offset in (0.0, config.mzi_delay_ns):
        t = base + pulse_offset + rng.exponential(config.bsm.t1_xx_ns, n)
        if config.topology == "hbt_x":
            t = t + rng.exponential(config.source.t1_x_ns, n)
        times.append(t)
    all_times = np.concatenate(times)
    to_d1 = fair_bits(rng, all_times.size)
    return {"d1": all_times[to_d1], "d2": all_times[~to_d1]}


def categorical_oracle(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index of each uniform draw u under ``cdf``, by binary search."""
    return np.searchsorted(cdf, u, side="right").clip(0, cdf.size - 1)


def full_array_chunk_hom(config, tables: dict, start: int, n: int, rng) -> dict[str, np.ndarray]:
    """Oracle for ``mc._chunk_hom``: the same draws, every intermediate a full array.

    It ignores the generator's ``tables``: each period's polarization pair
    (p1, p2) comes from its arms, and each pair draws from its own CDF, the
    diagonal entry 2 p1 + p2 of the pattern operators in the order of
    ``hand_built_patterns``.
    """
    from swapsim.interference import PATTERNS, pattern_operators
    from swapsim.mc import _interferes

    mzi, off = config.mzi_delay_ns, config.bsm_delay_offset_ps * 1e-3
    base = (start + np.arange(n, dtype=float)) * config.period_ns
    e1 = rng.exponential(config.bsm.t1_xx_ns, n)
    e2 = rng.exponential(config.bsm.t1_xx_ns, n)
    present1, present2, long1, long2 = (fair_bits(rng, n) for _ in range(4))
    # Only the overlapping periods draw a flag uniform, and only the
    # interfering ones an outcome uniform and a port-swap coin; the other
    # entries are never read.
    overlap = present1 & present2 & long1 & ~long2
    u_flag = np.full(n, np.nan)
    u_flag[overlap] = rng.random(np.count_nonzero(overlap))
    flag = overlap & _interferes(config.bsm, e1, e2, off, u_flag)
    u_outcome = np.full(n, np.nan)
    u_outcome[flag] = rng.random(np.count_nonzero(flag))
    u_swap = np.zeros(n, dtype=bool)
    u_swap[flag] = fair_bits(rng, np.count_nonzero(flag))
    route1, route2 = (fair_bits(rng, n) for _ in range(2))
    # The long arm's half-wave plate rotates its photon to V when crossed.
    pol1 = np.where(long1 & (not config.hom_copolarized), 1, 0)
    pol2 = np.where(long2 & (not config.hom_copolarized), 1, 0)
    arr1 = base + e1 + np.where(long1, mzi + off, 0.0)
    arr2 = base + mzi + e2 + np.where(long2, mzi + off, 0.0)
    occupations = [occ for occ, _ in hand_built_patterns()]
    ops = pattern_operators(1.0)[[PATTERNS.index(o) for o in occupations]]
    pattern = np.full(n, -1)
    for p1 in (0, 1):
        for p2 in (0, 1):
            cdf = np.cumsum(ops[:, 2 * p1 + p2, 2 * p1 + p2].real)
            sel = flag & (pol1 == p1) & (pol2 == p2)
            pattern[sel] = categorical_oracle(cdf / cdf[-1], u_outcome[sel])
    ta, tb = np.where(u_swap, arr2, arr1), np.where(u_swap, arr1, arr2)
    parts: dict[int, list] = {3: [], 4: []}
    for oi, occupation in enumerate(occupations):
        sel = pattern == oi
        for times, (port, _pol) in zip((ta[sel], tb[sel]), occupation):
            parts[port].append(times)
    lone1, lone2 = present1 & ~flag, present2 & ~flag
    parts[3] += [arr1[lone1 & route1], arr2[lone2 & route2]]
    parts[4] += [arr1[lone1 & ~route1], arr2[lone2 & ~route2]]
    return {"d1": np.concatenate(parts[3]), "d2": np.concatenate(parts[4])}


_KET_HH = np.array([1, 0, 0, 0], dtype=complex)
_KET_VV = np.array([0, 0, 0, 1], dtype=complex)
_KET_PSI_P = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2.0)
_KET_PSI_M = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)


def hand_built_patterns() -> list[tuple[tuple[tuple[int, int], ...], np.ndarray]]:
    """Physics oracle for the interference branch: the eight possible output
    occupations (port, pol) of two identical photons from opposite input
    ports, with their POVM elements built from |HH>, |VV>, |Psi+> and |Psi->
    in the bare (PSI_MINUS) convention. Polarization index 0 = H, 1 = V."""
    half = 0.5
    return [
        (((3, 0), (3, 0)), half * np.outer(_KET_HH, _KET_HH.conj())),
        (((4, 0), (4, 0)), half * np.outer(_KET_HH, _KET_HH.conj())),
        (((3, 1), (3, 1)), half * np.outer(_KET_VV, _KET_VV.conj())),
        (((4, 1), (4, 1)), half * np.outer(_KET_VV, _KET_VV.conj())),
        (((3, 0), (3, 1)), half * np.outer(_KET_PSI_P, _KET_PSI_P.conj())),
        (((4, 0), (4, 1)), half * np.outer(_KET_PSI_P, _KET_PSI_P.conj())),
        (((3, 0), (4, 1)), half * np.outer(_KET_PSI_M, _KET_PSI_M.conj())),
        (((3, 1), (4, 0)), half * np.outer(_KET_PSI_M, _KET_PSI_M.conj())),
    ]


def loop_swap_tables(config) -> dict:
    """Oracle for ``mc._swap_tables``: one 16x16 trace per table entry.

    Returns the interference and distinguishable CDFs per destination config
    (``ind_cdf``, ``dist_cdf``) in the layout ``full_array_chunk_swap`` reads.
    The pattern operators are those of ``pattern_operators``, in the order of
    ``hand_built_patterns``.
    """
    from swapsim.interference import PATTERNS, pattern_operators
    from swapsim.mc import _analyzer_projectors
    from swapsim.source import emit_pair
    from swapsim.swap import compose

    rho4 = compose(emit_pair(config.source, 1), emit_pair(config.source, 2)).matrix
    occupations = [occ for occ, _ in hand_built_patterns()]
    pattern_ops = pattern_operators(1.0, config.bsm.convention)[[PATTERNS.index(o) for o in occupations]]
    hv = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    pol_ops = [np.kron(a, b) for a in hv for b in hv]
    analyzers = {
        "A": _analyzer_projectors(config.alice_setting),
        "B": _analyzer_projectors(config.bob_setting),
    }
    ind_cdf, dist_cdf = {}, {}
    for ci, (d1, d2) in enumerate([("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")]):
        # order: (pass,pass), (pass,fail), (fail,pass), (fail,fail)
        x_ops = [np.kron(a, b) for a in analyzers[d1] for b in analyzers[d2]]
        for ops, out in ((pattern_ops, ind_cdf), (pol_ops, dist_cdf)):
            table = np.empty((len(ops), 4))
            for oi, m in enumerate(ops):
                for xi, xop in enumerate(x_ops):
                    table[oi, xi] = max(float(np.real(np.trace(rho4 @ np.kron(xop, m)))), 0.0)
            cdf = np.cumsum(table.reshape(-1))
            out[ci] = cdf / cdf[-1]
    return {"ind_cdf": ind_cdf, "dist_cdf": dist_cdf, "patterns": occupations}


def full_array_chunk_swap(config, tables: dict, start: int, n: int, rng) -> dict[str, np.ndarray]:
    """Oracle for ``mc._chunk_swap`` on ``loop_swap_tables``: the same draws, every
    intermediate a full array, one masked categorical draw per table."""
    from swapsim.mc import _interferes

    mzi, off = config.mzi_delay_ns, config.bsm_delay_offset_ps * 1e-3
    base = (start + np.arange(n, dtype=float)) * config.period_ns
    e_xx1, e_xx2 = (rng.exponential(config.bsm.t1_xx_ns, n) for _ in range(2))
    xx1_port1, xx2_port1, x1_alice, x2_alice = (fair_bits(rng, n) for _ in range(4))
    # Only the overlapping periods draw a flag uniform, and only the
    # interfering ones a port-swap coin; the other entries are never read.
    overlap = xx1_port1 & ~xx2_port1
    u_flag = np.full(n, np.nan)
    u_flag[overlap] = rng.random(np.count_nonzero(overlap))
    flag = overlap & _interferes(config.bsm, e_xx1, e_xx2, off, u_flag)
    u_outcome = rng.random(n)
    u_swap = np.zeros(n, dtype=bool)
    u_swap[flag] = fair_bits(rng, np.count_nonzero(flag))
    out1_coin, out2_coin = (fair_bits(rng, n) for _ in range(2))
    dest_cfg = np.where(x1_alice, 0, 2) + np.where(x2_alice, 0, 1)
    pattern = np.full(n, -1)
    pol1, pol2 = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    x_pass1, x_pass2 = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    for ci in range(4):
        sel = flag & (dest_cfg == ci)
        idx = categorical_oracle(tables["ind_cdf"][ci], u_outcome[sel])
        pattern[sel] = idx // 4
        x_pass1[sel], x_pass2[sel] = idx % 4 < 2, idx % 2 == 0
        sel = ~flag & (dest_cfg == ci)
        idx = categorical_oracle(tables["dist_cdf"][ci], u_outcome[sel])
        pol1[sel], pol2[sel] = idx // 8, idx // 4 % 2
        x_pass1[sel], x_pass2[sel] = idx % 4 < 2, idx % 2 == 0
    arr1 = base + e_xx1 + np.where(xx1_port1, mzi + off, 0.0)
    arr2 = base + mzi + e_xx2 + np.where(xx2_port1, mzi + off, 0.0)
    dist = ~flag
    det1 = [arr1[dist & out1_coin & (pol1 == 0)], arr2[dist & out2_coin & (pol2 == 0)]]
    det2 = [arr1[dist & ~out1_coin & (pol1 == 1)], arr2[dist & ~out2_coin & (pol2 == 1)]]
    ta, tb = np.where(u_swap, arr2, arr1), np.where(u_swap, arr1, arr2)
    for oi, occupation in enumerate(tables["patterns"]):
        sel = pattern == oi
        for times, (port, pol) in zip((ta[sel], tb[sel]), occupation):
            if (port, pol) == (3, 0):
                det1.append(times)
            elif (port, pol) == (4, 1):
                det2.append(times)
    # Only the X photons that pass their analyzer draw an exciton delay:
    # Alice's, then Bob's, each channel's in its own order.
    t_x1, t_x2 = base + e_xx1, base + mzi + e_xx2
    alice = np.concatenate([t_x1[x1_alice & x_pass1], t_x2[x2_alice & x_pass2]])
    bob = np.concatenate([t_x1[~x1_alice & x_pass1], t_x2[~x2_alice & x_pass2]])
    return {
        "bsm1": np.concatenate(det1),
        "bsm2": np.concatenate(det2),
        "alice": alice + rng.exponential(config.source.t1_x_ns, alice.size),
        "bob": bob + rng.exponential(config.source.t1_x_ns, bob.size),
    }


def serial_dead_time_filter(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """Oracle for ``mc._dead_time_filter``: keep an int ps event when it comes at
    least ``dead_ps`` after the last kept one (tested as ``t - last >= dead_ps``)."""
    if dead_ps <= 0 or times.size < 2:
        return times
    kept = []
    last = -math.inf
    for t in times.tolist():
        if t - last >= dead_ps:
            kept.append(t)
            last = t
    return np.array(kept, dtype=np.int64)


def whole_stream_merge(chunks: list[dict], end: int, dead_ps: int) -> dict[str, np.ndarray]:
    """Oracle for the joined segments of ``mc.Run``: every chunk of each channel
    joined at once, cut to [0, end) by a mask, sorted and dead-time filtered.
    Leaves ``chunks`` as is."""
    merged = {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
    for name, times in merged.items():
        times = times[(times >= 0) & (times < end)]
        times.sort(kind="stable")
        merged[name] = mc._dead_time_filter(times, dead_ps)
    return merged


def whole_channel_pair_chunks(ta: np.ndarray, tb: np.ndarray, lo: int, hi: int):
    """Oracle for ``mc._pair_chunks``: one partner search over all of ta, its
    pairs cut into chunks of at most ``mc._PAIR_BUDGET``."""
    first, counts = mc._partners(ta, tb, lo, hi)
    ends = np.cumsum(counts)
    shift = first - (ends - counts)
    total = int(ends[-1]) if ends.size else 0
    for p0 in range(0, total, mc._PAIR_BUDGET):
        p1 = min(p0 + mc._PAIR_BUDGET, total)
        a0, a1 = np.searchsorted(ends, (p0, p1 - 1), side="right")
        n = counts[a0 : a1 + 1].copy()
        n[0] -= p0 - (ends[a0] - counts[a0])
        n[-1] -= ends[a1] - p1
        bi = np.arange(p0, p1) + np.repeat(shift[a0 : a1 + 1], n)
        yield np.repeat(ta[a0 : a1 + 1], n), tb[bi]


def profile_loglike(rho: np.ndarray, ops: np.ndarray, counts, exposures) -> tuple[float, np.ndarray]:
    """Poisson log-likelihood of one state with the overall flux profiled out, plus dL/drho."""
    p = np.clip(np.real(np.einsum("sij,ji->s", ops, rho)), 1e-300, None)
    total = float(np.sum(counts))
    phi = total / float(np.sum(exposures * p))
    ll = float(np.sum(counts * np.log(phi * exposures * p)) - total)
    return ll, np.einsum("s,sij->ij", counts / p - phi * exposures, ops)


def lbfgs_mle(run: TomographyRun, max_iter: int = 10000, grad_tol: float = 1e-8) -> np.ndarray:
    """Maximum-likelihood state by L-BFGS-B on the Cholesky parameterization rho = T'T / Tr(T'T).

    T is lower triangular (16 real parameters), started from the projected
    linear inversion; a line-search breakdown is polished by fixed-step
    backtracking ascent until the likelihood is flat to machine precision.
    """
    from scipy.optimize import minimize

    ops = np.stack([s.operator() for s in run.settings])
    counts, exposures = run.counts, run.exposures
    total = float(np.sum(counts))
    rows, cols = np.tril_indices(4, -1)

    def to_t(theta):
        t = np.diag(theta[:4]).astype(complex)
        t[rows, cols] = theta[4:10] + 1j * theta[10:16]
        return t

    def to_rho(theta):
        t = to_t(theta)
        gram = t.conj().T @ t
        return t, gram / np.real(np.trace(gram)), np.real(np.trace(gram))

    def objective(theta):
        t, rho, tau = to_rho(theta)
        ll, grad_rho = profile_loglike(rho, ops, counts, exposures)
        tg = t @ (grad_rho - np.real(np.trace(grad_rho @ rho)) * np.eye(4))
        grad = np.concatenate([np.real(np.diag(tg)), np.real(tg[rows, cols]), np.imag(tg[rows, cols])])
        return -ll / total, -2.0 * grad / (tau * total)

    init = project_to_physical(linear_inversion(run), ("A", "B")).matrix
    init = (init + 1e-6 * np.eye(4)) / (1.0 + 4e-6)
    # Lower-triangular T with T'T = init from the index-reversed Cholesky factor.
    flip = np.eye(4)[::-1]
    upper = flip @ np.linalg.cholesky(flip @ init @ flip) @ flip
    low = upper.conj().T
    theta = np.concatenate([np.real(np.diag(low)), np.real(low[rows, cols]), np.imag(low[rows, cols])])
    options = {"maxiter": max_iter, "ftol": 1e-17, "gtol": grad_tol, "maxcor": 20}
    result = minimize(objective, theta, jac=True, method="L-BFGS-B", options=options)
    theta = result.x
    if np.linalg.norm(result.jac) >= grad_tol and "CONVERGENCE" not in str(result.message).upper():
        neg_ll, neg_grad = objective(theta)
        step = 1.0
        for _ in range(500):
            if np.linalg.norm(neg_grad) < grad_tol:
                break
            for _ in range(60):
                cand_ll, cand_grad = objective(theta - step * neg_grad)
                if cand_ll <= neg_ll:
                    theta, neg_ll, neg_grad = theta - step * neg_grad, cand_ll, cand_grad
                    step *= 1.5
                    break
                step *= 0.5
            else:
                break  # no representable improvement left
    rho = to_rho(theta)[1]
    return (rho + rho.conj().T) / 2.0


def joined_segments(run) -> dict[str, np.ndarray]:
    """Each channel's events over every segment of ``run``, joined, after
    checking the segment order: the boundaries never fall, and every event of
    a segment is below its boundary and at or above the previous one."""
    parts, edge = {}, None
    for bound, channels in run.segments():
        assert edge is None or bound >= edge
        for name, times in channels.items():
            assert np.all(times < bound) and (edge is None or np.all(times >= edge))
            parts.setdefault(name, []).append(times)
        edge = bound
    return {name: np.concatenate(parts.pop(name)) for name in list(parts)}  # each channel's parts freed once joined


@dataclass(frozen=True)
class Stream:
    """A run held whole: each channel's sorted int64 ps times, read as one
    segment whose boundary is above every event."""

    channels: dict[str, np.ndarray]
    config: mc.ApparatusConfig
    seed: int = 0
    duration_s: float = 1.0

    def counts(self) -> dict[str, int]:
        return {name: int(times.size) for name, times in self.channels.items()}

    def segments(self):
        yield 1 + max((int(t[-1]) for t in self.channels.values() if t.size), default=-1), self.channels


def simulate(config: mc.ApparatusConfig, duration_s: float, seed: int) -> Stream:
    """``mc.Run(config, seed, duration_s)`` held whole: its segments joined."""
    return Stream(joined_segments(mc.Run(config, seed, duration_s)), config, seed, duration_s)


class CutStream:
    """``stream`` read as segments cut at the sorted ``bounds``, by masks, and
    a last segment up to a boundary above every event."""

    def __init__(self, stream: Stream, bounds: list[int]):
        self.config, self.seed, self.duration_s = stream.config, stream.seed, stream.duration_s
        self.stream, self.bounds = stream, bounds

    def segments(self):
        ((top, channels),) = self.stream.segments()
        edge = np.iinfo(np.int64).min
        for bound in [*self.bounds, max([top, *self.bounds])]:
            yield bound, {name: t[(t >= edge) & (t < bound)] for name, t in channels.items()}
            edge = bound


def whole_stream_write(stream: Stream, path) -> None:
    """Oracle for ``mc.write_stream``: every record of the stream built at once,
    ordered by one stable argsort of the times, plus the same sidecar."""
    from swapsim.params import config_hash, json_text, to_dict

    names = sorted(stream.channels)
    times = [stream.channels[name] for name in names]
    records = np.empty(sum(t.size for t in times), dtype=mc.RECORD_DTYPE)
    records["channel"] = np.repeat(np.arange(len(names)), [t.size for t in times])
    records["time_ps"] = np.concatenate([np.empty(0, dtype=np.int64), *times])
    records = records[np.argsort(records["time_ps"], kind="stable")]
    records.tofile(path)
    sidecar = {
        "config": to_dict(stream.config),
        "config_hash": config_hash(stream.config),
        "seed": stream.seed,
        "duration_s": stream.duration_s,
        "channels": {name: i for i, name in enumerate(names)},
        "records": int(records.size),
    }
    path.with_suffix(".json").write_text(json_text(sidecar))
