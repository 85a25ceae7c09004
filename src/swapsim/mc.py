"""Event-level Monte Carlo of the swapping apparatus.

Generates per-detector photon timestamp streams for the full heralding
topology, for Hanbury Brown-Twiss autocorrelation runs, and for the
Hong-Ou-Mandel interferometer, then provides the coincidence analyses built
on those streams (pulsed g2, HOM visibility, four-fold delay scans, heralded
and unheralded tomography counts).

Every analysis reads one input type, a run: anything with ``config``,
``seed``, ``duration_s`` and ``segments()``, the time-ordered segments of its
detector streams. A ``Run`` generates them; the ``RunFile`` that
``read_stream`` returns reads them back from a stream file in bounded memory,
with the same numbers.

Simulation is partitioned into independent period blocks with per-block
derived seeds, so identical (config, seed, duration) inputs reproduce
bit-identical streams regardless of block execution order.
"""
from __future__ import annotations

import json
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .config import ANALYZER_HALF_PS, BACKGROUND_WINDOW_NS, G2_HALF_PS, HISTOGRAM_BIN_PS, HOM_HALF_PS
from .config import ApparatusConfig, McError
from .interference import PATTERNS, BsmSettings, pattern_operators
from .params import atomic_file, config_hash, from_dict, json_text, to_dict
from .qstate import POLARIZATION_KETS
from .source import SourceParams, emit_pair
from .swap import compose
from .tomography import MeasurementSetting, TomographyRun

_CHUNK_PERIODS = 1 << 16  # 0.86 ms at 76 MHz; a live swap chunk holds about 3 MB
_PAIR_BUDGET = 1 << 16
_MAX_BINS = 1 << 24  # histogram bins per analysis; its centers, cuts and counts peak at 7.2 8 B values per bin
_CATEGORICAL_CELLS = 1 << 8  # rank-table cells per group of a categorical draw (at most 32 outcomes each)
_SEARCH_BLOCK = 2048  # keys per block-local search; 1024-8192 measured within 8 % of the best
_DRAW_BLOCK = 1 << 14  # values per block of a draw, gather or offset used element by element

RECORD_DTYPE = np.dtype([("channel", "u1"), ("time_ps", "<u8")])
_READ_RECORDS = 1 << 20  # records per read block of a stream file, about 9 MB


def worker_count() -> int:
    """Worker parallelism, capped by the SWAPSIM_THREADS environment variable."""
    cap = os.environ.get("SWAPSIM_THREADS")
    avail = os.cpu_count() or 1
    if cap is None:
        return avail
    try:
        n = int(cap)
    except ValueError:
        n = 0
    if n < 1:
        raise McError(f"SWAPSIM_THREADS={cap!r} is not a positive integer")
    return min(avail, n)


def _analyzer_projectors(setting: str | None) -> tuple[np.ndarray, np.ndarray]:
    eye = np.eye(2, dtype=complex)
    if setting is None:
        return eye, np.zeros((2, 2), dtype=complex)
    ket = POLARIZATION_KETS[setting]
    proj = np.outer(ket, ket.conj())
    return proj, eye - proj


# The interference-branch patterns the generators sample, in the order that
# lays out their CDFs: (3H, 3H), (4H, 4H), (3V, 3V), (4V, 4V), (3H, 3V),
# (4H, 4V), (3H, 4V), (3V, 4H). The co-polarized cross-port patterns vanish
# for interfering photons (Hong-Ou-Mandel) and are not sampled.
_SAMPLED = [0, 7, 4, 9, 1, 8, 3, 5]
_SAMPLED_PATTERNS = tuple(PATTERNS[k] for k in _SAMPLED)

# The detector of each output mode (port, pol): the heralding BSM detects
# 3H and 4V only, the HOM interferometer every mode by its port.
_BSM_DETECTORS = {(3, 0): "bsm1", (4, 1): "bsm2"}
_HOM_DETECTORS = {(3, 0): "d1", (3, 1): "d1", (4, 0): "d2", (4, 1): "d2"}


@lru_cache(maxsize=1)
def _four_photon_state(source: SourceParams) -> np.ndarray:
    """The state of two emissions of ``source``, ordered (X1, X2, XX1, XX2),
    as rho[i, k, j, l]: X indices i, j and XX indices k, l. Every run of a
    multi-setting estimate shares its source, so it is computed once."""
    rho4 = compose(emit_pair(source, 1), emit_pair(source, 2)).matrix.reshape(4, 4, 4, 4)
    rho4.flags.writeable = False
    return rho4


# The distinguishable branch's polarization pairs (pol1, pol2): HH, HV, VH, VV.
_POL_OPS = np.eye(4)[:, :, None] * np.eye(4)[:, None, :]


def _outcome_codes(dest: int, interfering: bool) -> np.ndarray:
    """The code of each outcome of one swap table, for X destinations ``dest``.

    Bits 0-3 are the X detections: photon 1 by Alice, photon 2 by Alice,
    photon 1 by Bob, photon 2 by Bob. On the distinguishable branch bits 4-7
    are the XX polarizations: photon 1 H, photon 1 V, photon 2 H, photon 2 V;
    on the interference branch bits 4-6 are the pattern.
    """
    o = np.arange(32 if interfering else 16)
    pass1, pass2 = (o % 4 < 2).astype(int), (o % 2 == 0).astype(int)
    bob1, bob2 = dest >> 1, dest & 1
    code = pass1 << 2 * bob1 | pass2 << 1 + 2 * bob2
    if interfering:
        code |= o // 4 << 4
    else:
        pol1, pol2 = o // 8, o // 4 % 2
        code |= 16 << pol1 | 64 << pol2
    return code.astype(np.uint8)


_SWAP_CODES = [_outcome_codes(dest, branch == 0) for branch in (0, 1) for dest in range(4)]


def _swap_tables(config: ApparatusConfig) -> dict:
    """Joint outcome probability tables for the heralding topology.

    For each destination assignment of the two non-interfering photons, the
    interference branch samples (pattern, pass1, pass2) and the
    distinguishable branch samples (pol1, pol2, pass1, pass2), both from the
    exact Born probabilities of the four-photon state.

    ``cdfs`` holds the four interference CDFs, then the four distinguishable
    ones, in destination-config order: interference outcome 4 * pattern + x,
    distinguishable outcome 8 * pol1 + 4 * pol2 + x, x the analyzer outcome.
    ``draw`` draws each period's ``_outcome_codes`` from its group's CDF.
    """
    pattern_ops = pattern_operators(1.0, config.bsm.convention)[_SAMPLED]
    # Per destination (Alice, Bob), its analyzer's pass and fail projectors.
    proj = np.array([_analyzer_projectors(config.alice_setting), _analyzer_projectors(config.bob_setting)])
    # The analyzer operators of photons 1 and 2 by destination config (2 *
    # photon 1 to Bob + photon 2 to Bob) and outcome (pass,pass), (pass,fail),
    # (fail,pass), (fail,fail): the Kronecker products of their projectors.
    x_ops = np.einsum("pxca,qydb->pqxycdab", proj, proj).reshape(4, 4, 4, 4)
    # Tr[rho4 (x_op kron bsm_op)] pairs the state's X indices (i, j) with the
    # analyzer operator and its XX indices (k, l) with the pattern or
    # polarization operator. One einsum over all four indices gives the loop
    # oracle's sums bit for bit on the tested sources; two steps do not.
    probs = np.einsum(
        "ikjl,cxji,mlk->cmx", _four_photon_state(config.source), x_ops, np.concatenate([pattern_ops, _POL_OPS])
    ).real.clip(0.0, None)
    cdfs = []
    for block in (probs[:, :8], probs[:, 8:]):
        cdf = np.cumsum(block.reshape(4, -1), axis=1)
        cdfs.extend(cdf / cdf[:, -1:])
    return {"cdfs": cdfs, "draw": _categorical(cdfs, _SWAP_CODES)}


def _hom_tables(config: ApparatusConfig) -> dict:
    """The one interference-branch sampler of the HOM topology. Overlapping
    photons always have photon 1 on the long arm (V behind its half-wave plate
    when crossed) and photon 2 on the short arm (H), so the pattern weights are
    entry 2 p1 + p2 on the diagonal of each sampled pattern operator."""
    k = 0 if config.hom_copolarized else 2
    cdf = np.cumsum(pattern_operators(1.0)[_SAMPLED, k, k].real)
    return {"draw": _categorical([cdf / cdf[-1]], [np.arange(cdf.size)])}


def _ranker(cuts: np.ndarray, cells: int):
    """``x -> np.searchsorted(cuts, x, side="right")`` for sorted distinct
    int64 ``cuts`` and int64 x below its maximum, over about ``cells`` cells.

    Any nondecreasing cell map is exact: cuts in a lower cell than x's are
    below x and cuts in a higher one above it. Cells are 2**k wide, the
    first one just below the first cut; an x outside the cuts' span falls in
    a cell below 0 or past the last, which ``rank`` clips. ``first[cell]``
    counts the cuts in lower cells and one on the cell's first value, so x
    is compared only with the ``depth`` cuts from ``first[cell]`` on, padded
    past the last cut with a value no x reaches: none in 1-wide cells.
    """
    k = (int(cuts[-1] - cuts[0]) // cells).bit_length()
    lo = cuts[0] - (1 << k)

    def cell(x: np.ndarray) -> np.ndarray:
        y = x - lo
        y >>= k
        return y

    # Each cut counts from cell ceil((cut - lo) / 2**k) on: the cell whose
    # first value it is, else the next.
    first = np.subtract(lo, cuts)
    first >>= k
    np.negative(first, out=first)
    first = np.bincount(first, minlength=(int(cuts[-1] - lo) >> k) + 2)
    inner = cell(cuts)[(cuts - lo) & ((1 << k) - 1) != 0] if k else cuts[:0]
    depth = int(np.bincount(inner).max(initial=0))
    np.cumsum(first, out=first)
    padded = np.concatenate([cuts, np.full(depth, np.iinfo(np.int64).max)])

    def rank(x: np.ndarray) -> np.ndarray:
        r = first.take(cell(x), mode="clip")  # the last cell counts every cut
        base = r.copy() if depth > 1 else r
        for t in range(depth):
            r += x >= padded[t:].take(base)
        return r

    return rank


def _categorical(cdfs: Sequence[np.ndarray], labels: Sequence[np.ndarray]):
    """Categorical draws from several CDFs in one rank pass.

    ``draw(u, key=None, out=None)`` gives, as uint8, ``labels[g][i]`` with
    ``i = np.searchsorted(cdfs[g], u, side="right").clip(0, cdfs[g].size - 1)``
    for u = j / 2**53, j an integer in [0, 2**53) (every value
    ``Generator.random`` returns), and g its ``key`` (0 without keys). A CDF
    is nondecreasing in [0, 1] and ends at 1, so i is at most its size - 1.

    A CDF value c is at most u exactly when its integer cut ceil(c 2**53) is
    at most j. So ``_ranker`` ranks x = j + g 2**53 among the cuts of every
    group, each group's shifted by g 2**53 and led by a cut there; cuts at 0
    or 2**53 (zero-probability outcomes at either end) and repeated cuts
    only change the outcome after a cut, kept in ``label``. The cuts stay
    int64: past 2**53 a float64 cannot hold them all.
    """
    one = 1 << 53
    grid = np.concatenate([np.ceil(np.multiply(cdf, one)).astype(np.int64) + g * one for g, cdf in enumerate(cdfs)])
    cuts = np.union1d(np.arange(len(cdfs), dtype=np.int64) * one, grid[(grid & (one - 1)) != 0])
    # Rank r follows the (r - 1)-th cut: its outcome counts the values of the
    # cut's CDF at or below that cut (after every value of a lower group).
    label = np.zeros(cuts.size + 1, dtype=np.uint8)
    label[1:] = np.concatenate(labels)[np.searchsorted(grid, cuts, side="right")]
    rank = _ranker(cuts, _CATEGORICAL_CELLS * len(cdfs))

    def draw(u: np.ndarray, key: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        x = np.multiply(u, one, out=np.empty(u.size, dtype=np.int64), casting="unsafe")
        if key is not None:
            x += np.left_shift(key, 53, dtype=np.int64)
        return label.take(rank(x), out=out, mode="clip")

    return draw


def _dead_time_filter(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """Sorted int ps ``times`` without the events that come less than
    ``dead_ps`` after the last kept one, tested as ``t - last >= dead_ps``.

    An event at least ``dead_ps`` after its predecessor starts a cluster and
    is always kept, since the last kept event is at or before the
    predecessor. The event after a start is always dropped. Each round tests
    the next event of every open cluster of three or more against that
    cluster's last kept time.
    """
    if dead_ps <= 0 or times.size < 2:
        return times
    # The cluster starts, then a sentinel start after the last event.
    keep = np.empty(times.size + 1, dtype=bool)
    keep[0] = keep[-1] = True
    np.greater_equal(np.diff(times), dead_ps, out=keep[1:-1])
    idx = np.flatnonzero(keep[:-3] & ~keep[1:-2] & ~keep[2:-1]) + 2
    last = times[idx - 2]
    while idx.size:
        cand = times[idx]
        ok = cand - last >= dead_ps
        keep[idx] = ok
        np.copyto(last, cand, where=ok)
        idx += 1
        open_ = ~keep[idx]  # the next event is not the next cluster's start
        idx, last = idx.compress(open_), last.compress(open_)
    return np.compress(keep[:-1], times)


def _interferes(
    bsm: BsmSettings, e1: np.ndarray, e2: np.ndarray, off: float, u_flag: np.ndarray
) -> np.ndarray:
    """Interference flags of overlapping photon pairs with emission delays e1, e2.

    A pair interferes when the uniform draw ``u_flag`` falls below the
    coherence kernel exp(-2*gamma*|delta|) at its arrival-time difference,
    scaled by the intrinsic limit.
    """
    # limit * exp(-2 gamma |e1 - e2 + off|) in place; off the kernel's support
    # no pair interferes.
    kernel = e1 - e2
    kernel += off
    np.abs(kernel, out=kernel)
    kernel *= -2.0 * bsm.dephasing_rate
    np.exp(kernel, out=kernel)
    kernel *= bsm.intrinsic_limit
    flags = u_flag < kernel
    flags &= e1 + off >= 0.0
    flags &= e2 - off >= 0.0
    return flags


def _uniform_blocks(rng, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(s, ``rng.random(n)[s : s + _DRAW_BLOCK]``) block after block, in one
    reused buffer. The generator fills a draw one value at a time, so the
    blocks are ``rng.random(n)`` bit for bit."""
    buf = np.empty(min(n, _DRAW_BLOCK))
    for s in range(0, n, _DRAW_BLOCK):
        yield s, rng.random(out=buf[: min(_DRAW_BLOCK, n - s)])


def _coins(rng, n: int, p: float) -> np.ndarray:
    """``rng.random(n) < p``, drawn a block at a time."""
    out = np.empty(n, dtype=bool)
    for s, u in _uniform_blocks(rng, n):
        np.less(u, p, out=out[s : s + u.size])
    return out


def _bits(rng, n: int) -> np.ndarray:
    """n fair coins as bools, eight to each random byte."""
    return np.unpackbits(rng.integers(0, 256, -(-n // 8), dtype=np.uint8), count=n).view(bool)


def _add_blocks(arr: np.ndarray, fill: Callable[[np.ndarray, int], object]) -> None:
    """``arr += v`` a block at a time: ``fill(d, s)`` writes ``v[s : s + d.size]`` to ``d``."""
    buf = np.empty(min(arr.size, _DRAW_BLOCK))
    for s in range(0, arr.size, _DRAW_BLOCK):
        d = buf[: min(_DRAW_BLOCK, arr.size - s)]
        fill(d, s)
        arr[s : s + d.size] += d


def _add_draws(arr: np.ndarray, draw, scale: float) -> None:
    """``arr += scale * draw(arr.size)``: with ``rng.standard_exponential`` or
    ``rng.standard_normal``, that is ``rng.exponential(scale, n)`` or ``rng.normal(0.0, scale, n)``."""
    _add_blocks(arr, lambda d, s: np.multiply(draw(out=d), scale, out=d))


def _add_masked(arr: np.ndarray, mask: np.ndarray, c: float) -> None:
    """``arr += mask * c``; ``np.add(..., where=mask)`` is several times slower."""
    _add_blocks(arr, lambda d, s: np.multiply(mask[s : s + d.size], c, out=d))


def _channel(*parts) -> np.ndarray:
    """The parts joined in one new array. A part is an array, or a pair
    (mask, times) that stands for ``np.compress(mask, times)``: gathered a
    block at a time through the block's index array (np.compress builds one
    for the whole mask, and with ``out`` also copies through a buffer)."""
    out = np.empty(sum(p.size if isinstance(p, np.ndarray) else int(np.count_nonzero(p[0])) for p in parts))
    k = 0
    for part in parts:
        if isinstance(part, np.ndarray):
            out[k : k + part.size] = part
            k += part.size
            continue
        mask, times = part
        for s in range(0, mask.size, _DRAW_BLOCK):
            at = np.flatnonzero(mask[s : s + _DRAW_BLOCK])
            times[s : s + _DRAW_BLOCK].take(at, out=out[k : k + at.size], mode="clip")
            k += at.size
    return out


def _pulse_arrivals(config: ApparatusConfig, start: int, arr1: np.ndarray, arr2: np.ndarray) -> None:
    """Turn the emission delays of the two pulses' photons into arrival times
    on the direct arm, in place: arr1 += base, arr2 += base + mzi."""
    for s in range(0, arr1.size, _DRAW_BLOCK):
        base = np.arange(start + s, start + min(s + _DRAW_BLOCK, arr1.size), dtype=float)
        base *= config.period_ns
        arr1[s : s + base.size] += base
        base += config.mzi_delay_ns
        arr2[s : s + base.size] += base


def _route_pairs(arr1, arr2, pairs, u_swap, pattern, detector: dict, parts: dict) -> None:
    """Append each interfering pair's detection times to ``parts``, pattern
    by pattern, each in pair order: the pairs are periods of ``arr1`` and
    ``arr2``, ``pattern`` indexes ``_SAMPLED_PATTERNS``, ``u_swap`` picks the
    photon that takes its first mode (the two times are exchangeable), and
    ``detector`` maps an output mode (port, pol) to its channel; an unmapped
    mode goes undetected."""
    order = np.argsort(pattern, kind="stable")
    u_swap, at = u_swap.take(order), pairs.take(order)
    a1, a2 = arr1.take(at), arr2.take(at)
    ta, tb = np.where(u_swap, a2, a1), np.where(u_swap, a1, a2)
    ends = np.cumsum(np.bincount(pattern, minlength=len(_SAMPLED_PATTERNS))).tolist()
    for occupation, lo, hi in zip(_SAMPLED_PATTERNS, [0, *ends], ends):
        for times, mode in zip((ta[lo:hi], tb[lo:hi]), occupation):
            if mode in detector:
                parts[detector[mode]].append(times)


def _bit(code: np.ndarray, k: int, mask: np.ndarray | bool = True) -> np.ndarray:
    """Bit k of each uint8 code and ``mask``, as bools."""
    bit = code >> k
    bit &= mask
    return bit.view(bool)


def _chunk_swap(config: ApparatusConfig, tables: dict, start: int, n: int, rng) -> dict[str, np.ndarray]:
    mzi = config.mzi_delay_ns
    off = config.bsm_delay_offset_ps * 1e-3

    # Each channel's parts keep their order, so efficiency and jitter draw
    # against the same detections. Fair coins are bits, and the other draws
    # are made only for the periods or photons that read them. Emission
    # delays become arrival times in place.
    arr = rng.exponential(config.bsm.t1_xx_ns, 2 * n)  # the two pulses' draws of n, back to back
    arr1, arr2 = arr[:n], arr[n:]
    xx1_port1, xx2_port1, x1_alice, x2_alice = (_bits(rng, n) for _ in range(4))
    # Interference only when the photons overlap at the splitter: emission 1
    # through the delayed arm against emission 2 through the direct arm.
    overlap = np.flatnonzero(xx1_port1 & ~xx2_port1)
    flags = _interferes(config.bsm, arr1.take(overlap), arr2.take(overlap), off, rng.random(overlap.size))
    pairs = overlap.compress(flags)
    del overlap, flags  # pairs are the interfering periods

    # Each period's outcome comes from the table of its group: the branch
    # (interference 0-3, distinguishable 4-7) by destination config, drawn
    # as the outcome's code (see ``_outcome_codes``).
    key = np.uint8(4) + np.uint8(2) * ~x1_alice + ~x2_alice
    key[pairs] -= 4
    del x1_alice, x2_alice  # the codes carry the X destinations
    code = np.empty(n, dtype=np.uint8)
    for s, u in _uniform_blocks(rng, n):
        tables["draw"](u, key[s : s + u.size], code[s : s + u.size])
    del key
    u_swap = _bits(rng, pairs.size)
    out1_coin, out2_coin = (_bits(rng, n) for _ in range(2))  # distinguishable-branch ports

    # arr1 = base + e_xx1 and arr2 = base + mzi + e_xx2 on the direct arm. An
    # X photon arrives its exciton delay after its pulse's XX photon there. The
    # analyzers see both branches, and only the X photons that pass them draw
    # that delay: Alice's, then Bob's, each channel built in one array.
    _pulse_arrivals(config, start, arr1, arr2)
    alice = _channel((_bit(code, 0), arr1), (_bit(code, 1), arr2))
    bob = _channel((_bit(code, 2), arr1), (_bit(code, 3), arr2))
    for times in (alice, bob):
        _add_draws(times, rng.standard_exponential, config.source.t1_x_ns)
    _add_masked(arr1, xx1_port1, mzi + off)
    _add_masked(arr2, xx2_port1, mzi + off)
    del xx1_port1, xx2_port1

    # Distinguishable branch: independent output routing, H/V projection.
    # An interfering pair's code bits 4-6 are its pattern, not polarizations.
    pattern = code.take(pairs) >> 4
    code[pairs] &= 15
    routed: dict[str, list] = {"bsm1": [], "bsm2": []}
    _route_pairs(arr1, arr2, pairs, u_swap, pattern, _BSM_DETECTORS, routed)
    bsm1 = _channel((_bit(code, 4, out1_coin), arr1), (_bit(code, 6, out2_coin), arr2), *routed["bsm1"])
    bsm2 = _channel((_bit(code, 5, ~out1_coin), arr1), (_bit(code, 7, ~out2_coin), arr2), *routed["bsm2"])
    return {"bsm1": bsm1, "bsm2": bsm2, "alice": alice, "bob": bob}


def _chunk_hbt(config: ApparatusConfig, start: int, n: int, rng) -> dict[str, np.ndarray]:
    all_times = np.zeros(2 * n)
    _pulse_arrivals(config, start, all_times[:n], all_times[n:])
    for times in (all_times[:n], all_times[n:]):
        _add_draws(times, rng.standard_exponential, config.bsm.t1_xx_ns)
        if config.topology == "hbt_x":
            _add_draws(times, rng.standard_exponential, config.source.t1_x_ns)
    to_d1 = _bits(rng, all_times.size)
    d1 = _channel((to_d1, all_times))
    return {"d1": d1, "d2": _channel((np.logical_not(to_d1, out=to_d1), all_times))}


def _chunk_hom(config: ApparatusConfig, tables: dict, start: int, n: int, rng) -> dict[str, np.ndarray]:
    mzi = config.mzi_delay_ns
    off = config.bsm_delay_offset_ps * 1e-3

    # The exponential draws become arrival times in place. Fair coins are
    # bits; the uniforms are drawn only for the periods that read them.
    arr1, arr2 = (rng.exponential(config.bsm.t1_xx_ns, n) for _ in range(2))
    # Input polarizer on each photon, then interferometer arm.
    present1, present2, long1, long2 = (_bits(rng, n) for _ in range(4))
    overlap = np.flatnonzero(present1 & present2 & long1 & ~long2)
    e1, e2 = arr1.take(overlap), arr2.take(overlap)
    # arr1 = base + e1 (+ mzi + off on the long arm), arr2 = base + mzi + e2 (+ the same).
    _pulse_arrivals(config, start, arr1, arr2)
    _add_masked(arr1, long1, mzi + off)
    _add_masked(arr2, long2, mzi + off)

    pairs = overlap.compress(_interferes(config.bsm, e1, e2, off, rng.random(overlap.size)))
    del overlap, e1, e2
    u_outcome = rng.random(pairs.size)
    u_swap = _bits(rng, pairs.size)
    route1, route2 = (_bits(rng, n) for _ in range(2))

    routed: dict[str, list] = {"d1": [], "d2": []}
    _route_pairs(arr1, arr2, pairs, u_swap, tables["draw"](u_outcome), _HOM_DETECTORS, routed)
    # Photons that do not interfere route independently.
    present1[pairs] = present2[pairs] = False
    return {
        "d1": _channel(*routed["d1"], (present1 & route1, arr1), (present2 & route2, arr2)),
        "d2": _channel(*routed["d2"], (present1 & ~route1, arr1), (present2 & ~route2, arr2)),
    }


def _period_count(duration_s: float, rep_rate_hz: float) -> int:
    """Whole periods in ``duration_s``: the largest n with n / rep_rate_hz <= duration_s.

    A duration written as P / rep_rate_hz thus gives P periods, where the
    rounded product duration_s * rep_rate_hz can fall just below P.
    """
    n = int(duration_s * rep_rate_hz)
    if (n + 1) / rep_rate_hz <= duration_s:
        return n + 1
    return n - 1 if n / rep_rate_hz > duration_s else n


def _in_order(run_chunk: Callable[[int], dict], n_chunks: int) -> Iterator[dict]:
    """``run_chunk(0)``, ``run_chunk(1)``, ... in order.

    ``min(worker_count(), n_chunks // 4)`` threads generate them, so each
    worker gets at least four chunks; below two workers the chunks run in
    the caller's thread (pooled, a run of four chunks was measured to take
    more CPU time and no less wall time). While ``workers`` chunks generate,
    ``Run.segments`` holds the one last yielded as its pending events, and
    its reader may still hold the segment released before it. The pool is
    shut down when the consumer stops early."""
    workers = min(worker_count(), n_chunks // 4)
    if workers <= 1:
        yield from map(run_chunk, range(n_chunks))
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures: deque = deque()
        for ci in range(n_chunks):
            while len(futures) < workers and ci + len(futures) < n_chunks:
                futures.append(pool.submit(run_chunk, ci + len(futures)))
            yield futures.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class Run:
    """One Monte Carlo run, generated each time its ``segments`` are read.

    Segment k is a boundary b_k and, per channel, the final events below it
    and at or above b_(k-1): cut to the run's [0, end) ps and dead-time
    filtered.
    """

    config: ApparatusConfig
    seed: int
    duration_s: float

    def __post_init__(self):
        if type(self.seed) is not int or self.seed < 0:
            raise McError(f"seed {self.seed!r} is not a non-negative integer")
        if type(self.duration_s) not in (int, float) or not 0 < self.duration_s < math.inf:
            raise McError(f"duration_s {self.duration_s!r} is not a positive finite number")
        if not self.duration_s * 1e12 < 2.0**63:
            raise McError(f"duration {self.duration_s} s ends past 2**63 ps (106.7 days), the int64 time range")
        if _period_count(self.duration_s, self.config.rep_rate_hz) == 0:
            raise McError(f"duration {self.duration_s} s holds no whole period at {self.config.rep_rate_hz} Hz")
        efficiency, channels = self.config.efficiency, self.config.channels()
        if isinstance(efficiency, Mapping) and (missing := sorted(set(channels) - set(efficiency))):
            raise McError(f"efficiency mapping has no value for the {self.config.topology} detectors {missing}")

    def segments(self) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
        config = self.config
        n_periods = _period_count(self.duration_s, config.rep_rate_hz)
        channels = config.channels()
        efficiency = config.efficiency
        if not isinstance(efficiency, Mapping):
            efficiency = dict.fromkeys(channels, efficiency)
        sigma_ns = config.bsm.jitter_sigma_ns
        flux = config.signal_flux_per_pulse()

        if config.topology == "swap":
            generate = partial(_chunk_swap, config, _swap_tables(config))
        elif config.topology == "hom":
            generate = partial(_chunk_hom, config, _hom_tables(config))
        else:
            generate = partial(_chunk_hbt, config)

        n_chunks = -(-n_periods // _CHUNK_PERIODS)

        def run_chunk(ci: int) -> dict[str, np.ndarray]:
            start = ci * _CHUNK_PERIODS
            n = min(_CHUNK_PERIODS, n_periods - start)
            # Chunk ci's seed is SeedSequence(seed).spawn(n_chunks)[ci], made on its own.
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(ci,)))
            raw = generate(start, n, rng)
            out = {}
            span = (start * config.period_ns, (start + n) * config.period_ns)
            for name in channels:
                # Each raw channel is freed as its detections are built in one new array.
                eta = float(efficiency[name])
                times = raw.pop(name)
                parts = [(_coins(rng, times.size, eta), times) if eta < 1.0 else times]
                if config.background_ratio > 0.0:
                    per_pulse = config.background_ratio * flux[name] * eta
                    n_bg = rng.poisson(per_pulse * 2 * n)
                    pulse = rng.integers(0, 2 * n, n_bg)
                    bg = span[0] + (pulse // 2) * config.period_ns + (pulse % 2) * config.mzi_delay_ns
                    bg += rng.random(n_bg) * BACKGROUND_WINDOW_NS
                    parts.append(bg)
                if len(parts) > 1 or eta < 1.0:
                    times = _channel(*parts)
                del parts
                if sigma_ns > 0.0 and times.size:
                    _add_draws(times, rng.standard_normal, sigma_ns)
                if config.dark_rate_hz > 0.0:
                    n_dark = rng.poisson(config.dark_rate_hz * (span[1] - span[0]) * 1e-9)
                    dark = span[0] + rng.random(n_dark) * (span[1] - span[0])
                    times = np.concatenate([times, dark])
                # Whole ps from here on: rounded half to even, in place (the cast
                # reads each element before it writes that element's int64).
                times *= 1000.0
                np.rint(times, out=times)
                ps = times.view(np.int64)
                ps[...] = times
                ps.sort(kind="stable")  # timsort: these channels are nearly sorted
                out[name] = ps
            return out

        end = math.ceil(n_periods * config.period_ns * 1000.0)  # whole ps before the last period's end
        dead_ps = math.ceil(config.dead_time_ns * 1000.0)
        pending = dict.fromkeys(channels, np.empty(0, dtype=np.int64))  # sorted, at or above the last boundary
        last: dict[str, int] = {}  # each channel's last kept time

        def release(bound: int) -> dict[str, np.ndarray]:
            # The first event at least the dead time after the last kept one
            # is kept, and the filter restarts there: t - last >= dead_ps is
            # t >= last + dead_ps in whole ps.
            segment = {}
            for name in channels:
                times = pending[name]
                cut = np.searchsorted(times, bound)
                pending[name] = times[cut:].copy()  # usually empty; no view keeps the chunk alive
                lo, hi = np.searchsorted(times[:cut], (last[name] + dead_ps if name in last else 0, end))
                segment[name] = kept = _dead_time_filter(times[lo:hi], dead_ps)
                if kept.size:
                    last[name] = int(kept[-1])
            return segment

        released = None
        with closing(_in_order(run_chunk, n_chunks)) as chunks:
            for ci, chunk in enumerate(chunks):
                # Every later chunk starts at or after this one's first event
                # (checked as it arrives), so the pending events below it are final.
                bound = min((int(t[0]) for t in chunk.values() if t.size), default=None)
                segment = None
                if bound is not None:
                    if released is not None and bound < released:
                        raise McError(f"chunk {ci} has an event at {bound} ps, below the released boundary {released}")
                    released = min(bound, end)
                    segment = release(released) if ci else None
                for name, times in chunk.items():
                    if pending[name].size:  # events of earlier chunks at or after this one's first
                        times = np.concatenate([pending[name], times])
                        times.sort(kind="stable")
                    pending[name] = times
                del chunk
                if segment is not None:
                    yield released, segment
                    del segment
        yield end, release(end)


def simulate_runs(
    base: ApparatusConfig,
    duration_s: float,
    variants: Sequence[Mapping[str, object]],
    seed: int,
    analysis: Callable[[Run], object],
) -> list:
    """``analysis`` of one ``Run`` per variant, in order.

    A variant maps ``ApparatusConfig`` fields to their values for its run.
    Run i is seeded with ``SeedSequence(seed).generate_state(len(variants))[i]``.
    A run is generated as its analysis reads its segments, so none is held whole.
    """
    seeds = np.random.SeedSequence(seed).generate_state(len(variants))
    return [analysis(Run(replace(base, **variant), int(s), duration_s)) for variant, s in zip(variants, seeds)]


def write_stream(stream: Run, path: str | os.PathLike) -> dict[str, int]:
    """Binary record stream {u8 channel, u64 time in ps} plus a JSON sidecar;
    returns the events per channel.

    Records are in time order, channels in name order at equal times. Every
    event of a segment comes before every event of the next, so each segment
    is sorted and written on its own. Both files appear once both are complete.
    """
    path = Path(path)
    counts: dict[str, int] = {}
    with atomic_file(path, "wb") as handle, closing(stream.segments()) as segments:
        for _, channels in segments:
            names = sorted(channels)
            times = [channels[name] for name in names]
            records = np.empty(sum(t.size for t in times), dtype=RECORD_DTYPE)
            records["channel"] = np.repeat(np.arange(len(names)), [t.size for t in times])
            records["time_ps"] = np.concatenate([np.empty(0, dtype=np.int64), *times])
            records[np.argsort(records["time_ps"], kind="stable")].tofile(handle)
            for name, t in channels.items():
                counts[name] = counts.get(name, 0) + int(t.size)
        sidecar = {
            "config": to_dict(stream.config),
            "config_hash": config_hash(stream.config),
            "seed": stream.seed,
            "duration_s": stream.duration_s,
            "channels": {name: i for i, name in enumerate(sorted(counts))},
            "records": sum(counts.values()),
        }
        with atomic_file(path.with_suffix(".json")) as side:
            side.write(json_text(sidecar))
    return counts


@dataclass(frozen=True)
class RunFile(Run):
    """A run read back from its stream file at ``path``; ``ids`` maps each
    channel to its record id.

    The records are read a block of ``_READ_RECORDS`` at a time. A block's
    segment ends at its last time, whose records carry into the next block,
    so equal times never straddle a boundary; the last segment ends above
    every event. Reading raises for a record out of time order (a u64 time
    of 2**63 or more reads as a negative int64, so it is one) or with an id
    the sidecar does not name.
    """

    path: Path
    ids: Mapping[str, int]

    def segments(self) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
        channel, times = np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)  # the carried records
        read = 0
        with open(self.path, "rb") as handle:
            while True:
                block = np.fromfile(handle, dtype=RECORD_DTYPE, count=_READ_RECORDS)
                fresh = block["time_ps"].astype(np.int64)
                if (back := np.flatnonzero(fresh < np.append(times[-1:] if times.size else 0, fresh[:-1]))).size:
                    raise McError(f"{self.path}: record {read + int(back[0])} is out of time order or past 2**63 ps")
                seen = np.flatnonzero(np.bincount(block["channel"], minlength=256)).tolist()
                if unknown := sorted(set(seen) - set(self.ids.values())):
                    raise McError(f"{self.path}: channel ids {unknown} are not named in the sidecar")
                read += block.size
                final = block.size < _READ_RECORDS
                channel, times = np.concatenate([channel, block["channel"]]), np.concatenate([times, fresh])
                del block, fresh
                bound = int(times[-1]) + final if times.size else 0
                cut = times.size if final else int(np.searchsorted(times, bound))
                yield bound, {name: times[:cut][channel[:cut] == self.ids[name]] for name in self.config.channels()}
                if final:
                    return
                channel, times = channel[cut:].copy(), times[cut:].copy()


def read_stream(path: str | os.PathLike) -> RunFile:
    """The run ``write_stream`` wrote, read back as segments. Its sidecar is
    checked as a ``Run`` is, and against the file's record count and the
    topology's channels."""
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    try:
        sidecar = json.loads(sidecar_path.read_text())
        if not isinstance(sidecar, dict):
            raise ValueError(f"sidecar is a JSON {type(sidecar).__name__}, not an object")
        config = from_dict(ApparatusConfig, sidecar.get("config"), "sidecar config", complete=True)
        missing = sorted({"channels", "seed", "duration_s", "records"} - set(sidecar))
        if missing:
            raise ValueError(f"missing keys {missing} in sidecar")
        ids, records = sidecar["channels"], sidecar["records"]
        if not isinstance(ids, dict) or not all(type(i) is int and 0 <= i <= 255 for i in ids.values()):
            raise ValueError(f"channels {ids!r} must map names to integer ids in 0-255")
        if len(set(ids.values())) < len(ids):
            raise ValueError(f"channel ids {ids!r} are not distinct")
        if (names := sorted(ids)) != (want := sorted(config.channels())):
            raise ValueError(f"channels {names} are not the {config.topology} detectors {want}")
        if type(records) is not int or records < 0:
            raise ValueError(f"records {records!r} is not a non-negative integer")
        run = RunFile(config, sidecar["seed"], sidecar["duration_s"], path, ids)
    except ValueError as exc:
        raise McError(f"{sidecar_path}: {exc}") from exc
    size = path.stat().st_size
    if size % RECORD_DTYPE.itemsize:
        raise McError(f"{path}: {size} bytes is not a whole number of {RECORD_DTYPE.itemsize}-byte records")
    if size // RECORD_DTYPE.itemsize != records:
        raise McError(f"{path}: {size // RECORD_DTYPE.itemsize} records, the sidecar says {records}")
    return run


def _block_ranks(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.searchsorted(table, keys)`` for a sorted ``table``, searching each
    block of ``_SEARCH_BLOCK`` keys only in the slice of ``table`` between the
    ranks of the block's least and greatest key."""
    ranks = np.empty(keys.size, dtype=np.intp)
    if keys.size:
        starts = np.arange(0, keys.size, _SEARCH_BLOCK)
        lo = np.searchsorted(table, np.minimum.reduceat(keys, starts)).tolist()
        hi = np.searchsorted(table, np.maximum.reduceat(keys, starts)).tolist()
        for s, a, b in zip(starts.tolist(), lo, hi):
            ranks[s : s + _SEARCH_BLOCK] = np.searchsorted(table[a:b], keys[s : s + _SEARCH_BLOCK]) + a
    return ranks


def _partners(ta: np.ndarray, tb: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Per ta event t, the first index and the count of the sorted tb events
    in [t + lo, t + hi).

    Where a window holds less than one tb event on average (a heralding gate,
    an analyzer window), the count steps past the first partner and searches
    only for the events that have one; else it searches for every window's end.
    """
    first = _block_ranks(ta + lo, tb)
    ends = ta + hi
    if tb.size < 2 or (hi - lo) * (tb.size - 1) >= int(tb[-1] - tb[0]):
        return first, _block_ranks(ends, tb) - first
    inside = tb.take(first, mode="clip") < ends
    inside &= first < tb.size
    counts = inside.astype(np.intp)
    more = np.flatnonzero(inside)
    counts[more] = _block_ranks(ends.take(more), tb) - first.take(more)
    return first, counts


def _pair_chunks(ta: np.ndarray, tb: np.ndarray, lo: int, hi: int):
    """Yield the paired times (a, b) of every ta event a with each of its
    ``_partners`` b, ordered by ta event, then by tb event, as new arrays.

    The search runs on blocks of ``_PAIR_BUDGET`` ta events, and a block's
    pairs are cut into chunks of at most ``_PAIR_BUDGET``, splitting inside a
    ta event's partners where needed, so memory grows with neither the event
    nor the pair count.
    """
    for s in range(0, ta.size, _PAIR_BUDGET):
        block = ta[s : s + _PAIR_BUDGET]
        first, counts = _partners(block, tb, lo, hi)
        ends = np.cumsum(counts)
        # Pair p (numbered across the block's events) of event a is tb[p + shift[a]].
        shift = np.subtract(first, ends - counts, out=first)
        total = int(ends[-1])
        for p0 in range(0, total, _PAIR_BUDGET):
            p1 = min(p0 + _PAIR_BUDGET, total)
            # The events holding the chunk's first and last pair.
            a0, a1 = np.searchsorted(ends, (p0, p1 - 1), side="right")
            n = counts[a0 : a1 + 1].copy()
            n[0] -= p0 - (ends[a0] - counts[a0])
            n[-1] -= ends[a1] - p1
            bi = np.arange(p0, p1) + np.repeat(shift[a0 : a1 + 1], n)
            yield np.repeat(block[a0 : a1 + 1], n), tb[bi]


def _windows(stream: Run, names: Sequence[str], span_ps: float, totals: dict | None = None):
    """Yield the sorted events of the ``names`` channels of ``stream`` window by
    window: every event of the first channel (the anchors) in exactly one
    window, and of each other channel at least the events within ``span_ps``
    of the window's anchors. ``totals`` gains each channel's event count.

    An anchor waits for the segment that releases its whole reach. The
    waiting anchors and the new ones that reach back across the boundary form
    one small window over copies of the nearby partner events; the rest of a
    segment's anchors form one window over its partner events as views.
    """
    span = math.ceil(span_ps)
    empty = np.empty(0, dtype=np.int64)
    waiting, near, edge = empty, [empty] * (len(names) - 1), None
    with closing(stream.segments()) as segments:
        for bound, channels in segments:
            if missing := [name for name in names if name not in channels]:
                raise McError(f"stream has no channel {missing[0]!r}")
            ta, *tbs = (channels[name] for name in names)
            if totals is not None:
                for name in names:
                    totals[name] = totals.get(name, 0) + channels[name].size
            c, done = (np.searchsorted(t, bound - span, side="right") for t in (waiting, ta))
            split = 0 if edge is None else min(done, np.searchsorted(ta, edge + span))
            head = np.concatenate([waiting[:c], ta[:split]])
            if head.size:
                reach = head[-1] + span
                yield head, *(np.concatenate([n, b[: np.searchsorted(b, reach, "right")]]) for n, b in zip(near, tbs))
            if done > split:
                yield ta[split:done], *tbs
            waiting = np.concatenate([waiting[c:], ta[done:]])
            keep = (waiting[0] if waiting.size else bound) - span  # no later anchor reaches below it
            near = [np.concatenate([x[np.searchsorted(x, keep) :] for x in pair]) for pair in zip(near, tbs)]
            edge = bound
            del channels, ta, tbs
    if waiting.size:
        yield waiting, *near


def _coincidences(
    windows,
    span_ps: float,
    offsets_ps: Sequence[float],
    half_ps: float,
    bin_ps: float | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, list[int]]:
    """Streamed coincidence counts of the pair deltas d = b - a with
    -span_ps <= d < span_ps, over the (ta, tb) ``windows`` of ``_windows``.

    Returns the bin centers and counts of the delta histogram over [-span,
    span], in an odd number of bins about ``bin_ps`` wide (None without
    ``bin_ps``) and, per offset, the number of deltas with offset - half_ps
    <= d <= offset + half_ps. Windows that touch at an edge both count a
    delta on it.

    Each edge becomes an integer cut, the least d that passes it: ceil(edge)
    for a bin's lower edge and a window's, floor(edge) + 1 for a window's
    upper one. No pair reaches +span, so the last bin's closed upper edge is
    the pair window's ceil(span). One rank among the cuts places a delta in
    every bin and window at once.
    """
    centers, hist, cuts = None, None, []
    if bin_ps is not None:
        if not 1 <= bin_ps < math.inf:  # a narrower bin could hold no whole-ps delta
            raise McError(f"histogram bin width must be positive, finite and at least the 1 ps time unit, got {bin_ps}")
        side = span_ps / bin_ps  # bins on either side of the central one, before truncation
        if not side < _MAX_BINS // 2:
            raise McError(f"histogram bin width {bin_ps} ps gives more than {_MAX_BINS} bins over +-{span_ps} ps")
        edges = np.histogram_bin_edges(np.empty(0), bins=2 * int(side) + 1, range=(-span_ps, span_ps))
        centers = edges[:-1] + edges[1:]
        centers /= 2.0
        cuts.append(np.ceil(edges, out=edges))
    offsets = np.asarray(offsets_ps, dtype=float)
    cuts += [np.ceil(offsets - half_ps), np.floor(offsets + half_ps) + 1]
    cuts = np.concatenate(cuts, dtype=np.int64, casting="unsafe")
    distinct = np.unique(cuts)
    where = np.searchsorted(distinct, cuts)
    del cuts
    # At least 4 * _PAIR_BUDGET cells: 1 ps wide over a default g2, HOM or control window.
    rank = _ranker(distinct, max(2 * distinct.size, 4 * _PAIR_BUDGET))
    segments = np.zeros(distinct.size + 1, dtype=np.int64)
    del distinct  # the ranker holds its own copy
    for ta, tb in windows:
        for a, deltas in _pair_chunks(ta, tb, math.ceil(-span_ps), math.ceil(span_ps)):
            # b - a in place, freeing a before the temporaries below: holding both
            # arrays through the chunk slowed a 10M-pair g2 pass by 5-7 %.
            deltas -= a
            del a
            segments += np.bincount(rank(deltas), minlength=segments.size)
    del rank
    # The deltas under each bin and window edge.
    below = np.cumsum(segments, out=segments)[where]
    if centers is not None:
        hist, below = np.diff(below[: centers.size + 1]), below[centers.size + 1 :]
    lower, upper = below.reshape(2, -1)
    return centers, hist, (upper - lower).tolist()


@dataclass(frozen=True)
class G2Result:
    bin_centers_ps: np.ndarray
    counts: np.ndarray
    g2_zero: float
    central_counts: int
    side_counts: tuple[int, ...]


def _d1_d2_coincidences(stream: Run, span_ps: float, offsets_ps, half_ps, bin_ps):
    """``_coincidences`` of the d1-d2 pairs of ``stream``, which needs events on both."""
    totals: dict[str, int] = {}
    with closing(_windows(stream, ("d1", "d2"), span_ps, totals)) as windows:
        result = _coincidences(windows, span_ps, offsets_ps, half_ps, bin_ps)
    if not (totals["d1"] and totals["d2"]):
        raise McError("empty stream")
    return result


def g2_histogram(stream: Run, bin_ps: float = HISTOGRAM_BIN_PS) -> G2Result:
    """Pulsed d1-d2 cross-correlation histogram and the zero-delay peak ratio.

    g2_zero is the central-peak area divided by the mean area of the five
    peaks on either side, at multiples of the pulse period. Histogram counts
    are raw coincidences.
    """
    period = stream.config.period_ns
    offsets = [0.0] + [sign * k * period * 1000.0 for k in range(1, 6) for sign in (-1.0, 1.0)]
    centers, hist, (central, *side) = _d1_d2_coincidences(stream, 5.5 * period * 1000.0, offsets, G2_HALF_PS, bin_ps)
    side_mean = float(np.mean(side))
    g2_zero = central / side_mean if side_mean > 0 else math.inf
    return G2Result(centers, hist, float(g2_zero), central, tuple(side))


@dataclass(frozen=True)
class HomHistogram:
    bin_centers_ps: np.ndarray
    counts: np.ndarray
    central_counts: int
    cluster_counts: dict[float, int]  # by cluster delay in ns


@dataclass(frozen=True)
class HomResult:
    copolarized: HomHistogram
    crossed: HomHistogram
    visibility: float


def _hom_single(stream: Run, bin_ps: float) -> HomHistogram:
    mzi = stream.config.mzi_delay_ns
    offsets = [k * mzi for k in (-2, -1, 0, 1, 2)]
    offsets_ps = [1000.0 * offset for offset in offsets]
    centers, hist, counts = _d1_d2_coincidences(stream, 2.5 * mzi * 1000.0, offsets_ps, HOM_HALF_PS, bin_ps)
    cluster = dict(zip(offsets, counts))
    return HomHistogram(centers, hist, cluster[0.0], cluster)


def hom_histogram(streams: tuple[Run, Run], bin_ps: float = HISTOGRAM_BIN_PS) -> HomResult:
    """Five-peak coincidence clusters for a co/cross stream pair plus visibility.

    The streams are checked first and then histogrammed in turn, so of two
    runs the crossed one is generated after the co-polarized one's histogram
    is taken.
    """
    co, cross = streams
    for s, want in ((co, True), (cross, False)):
        if s.config.topology != "hom":
            raise McError("hom analysis expects interferometer-topology streams")
        if s.config.hom_copolarized is not want:
            raise McError("pass the co-polarized stream first, the crossed one second")
    if abs(co.config.mzi_delay_ns - cross.config.mzi_delay_ns) > 1e-6:
        raise McError("interferometer delays of the two runs do not match")
    h_co, h_cross = (_hom_single(s, bin_ps) for s in streams)
    if h_cross.central_counts == 0:
        raise McError("crossed run has no central coincidences")
    scale = co.duration_s / cross.duration_s
    visibility = 1.0 - h_co.central_counts / (h_cross.central_counts * scale)
    return HomResult(h_co, h_cross, float(visibility))


def fourfold_coincidences(stream: Run, gate_ps: float | None = None) -> int:
    """Count BSM1 & BSM2 & Alice & Bob coincidences.

    A BSM pair (t1, t2) counts when -gate/2 <= t2 - t1 < gate/2, the gate
    being ``stream.config.fourfold_gate_ps(gate_ps)``. An analyzer
    detection t hits the heralding time c = (t1 + t2) / 2 when
    c - X <= t < c + X, X = ``ANALYZER_HALF_PS``; Alice's c is shifted back
    by the compensation delay in whole ps.
    """
    cfg = stream.config
    if cfg.topology != "swap":
        raise McError("four-fold analysis expects the heralding topology")
    gate = cfg.fourfold_gate_ps(gate_ps)
    # No two events are 2**61 ps (27 days) apart, so a wider gate gives the
    # same pairs with int64 window ends.
    half = min(gate / 2.0, 2.0**61)
    delay = round(cfg.mzi_delay_ns * 1000.0)
    # A heralding time is within half a gate of its BSM1 event, and its
    # analyzer windows within the delay and X of it.
    span = math.ceil(half) + delay + ANALYZER_HALF_PS
    count = 0
    with closing(_windows(stream, ("bsm1", "bsm2", "alice", "bob"), span)) as windows:
        for b1, b2, alice, bob in windows:
            for t1, t_bsm in _pair_chunks(b1, b2, -math.floor(half), math.ceil(half)):
                # c is whole or half a ps, so for whole-ps t and X the analyzer test
                # c - X <= t < c + X is ceil(c) - X <= t < ceil(c) + X.
                t_bsm += t1 + 1
                t_bsm >>= 1  # ceil(c)
                # Emission 1 feeds Alice one compensation delay before the heralding
                # time; emission 2 feeds Bob right at it.
                hit = _partners(t_bsm - delay, alice, -ANALYZER_HALF_PS, ANALYZER_HALF_PS)[1] > 0
                hit &= _partners(t_bsm, bob, -ANALYZER_HALF_PS, ANALYZER_HALF_PS)[1] > 0
                count += int(np.count_nonzero(hit))
    return count


def twofold_control_coincidences(stream: Run) -> int:
    """Alice-Bob coincidences around the emission separation, no BSM condition."""
    cfg = stream.config
    if cfg.topology != "swap":
        raise McError("control analysis expects the heralding topology")
    mzi = cfg.mzi_delay_ns * 1000.0
    with closing(_windows(stream, ("alice", "bob"), 3.0 * mzi)) as windows:
        _, _, (count,) = _coincidences(windows, 3.0 * mzi, [mzi], ANALYZER_HALF_PS)
    return count


def simulate_tomography_run(
    config: ApparatusConfig,
    settings: Sequence[MeasurementSetting],
    periods_per_setting: int,
    seed: int,
    heralded: bool,
    gate_ps: float | None = None,
) -> TomographyRun:
    """Per-setting coincidence counts, one ``simulate_runs`` run per setting.

    Heralded counts are ``fourfold_coincidences`` inside the gate (``config``'s
    own by default); unheralded ones are Alice-Bob control coincidences, which
    have no gate to give.
    """
    if not heralded and gate_ps is not None:
        raise McError("unheralded control counts take no BSM gate")
    variants = [{"alice_setting": s.projector_a, "bob_setting": s.projector_b} for s in settings]
    analysis = partial(fourfold_coincidences, gate_ps=gate_ps) if heralded else twofold_control_coincidences
    counts = simulate_runs(config, periods_per_setting / config.rep_rate_hz, variants, seed, analysis)
    return TomographyRun(tuple(settings), np.array(counts, dtype=float))
