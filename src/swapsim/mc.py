"""Event-level Monte Carlo of the swapping apparatus.

Generates per-detector photon timestamp streams for the full heralding
topology, for Hanbury Brown-Twiss autocorrelation runs, and for the
Hong-Ou-Mandel interferometer, then provides the coincidence analyses built
on those streams (pulsed g2, HOM visibility, four-fold delay scans, heralded
and unheralded tomography counts).

Simulation is partitioned into independent period blocks with per-block
derived seeds, so identical (config, seed, duration) inputs reproduce
bit-identical streams regardless of block execution order.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .interference import PATTERNS, BsmSettings, pattern_operators
from .params import config_hash, from_dict, to_dict
from .qstate import POLARIZATION_KETS
from .source import SourceParams, emit_pair
from .swap import compose
from .tomography import MeasurementSetting, TomographyRun

_CHUNK_PERIODS = 1 << 20
_PAIR_BUDGET = 1 << 16
_MAX_BINS = 1 << 24  # histogram bins per analysis; its centers, cuts and counts peak at 7.2 8 B values per bin
_CATEGORICAL_CELLS = 1 << 8  # rank-table cells of one categorical draw (at most 32 outcomes)
_SEARCH_BLOCK = 2048  # keys per block-local search; 1024-8192 measured within 8 % of the best
_BACKGROUND_WINDOW_NS = 2.0
_G2_HALF_PS = 500  # coincidence-window half-widths: g2 peak, HOM cluster, analyzer detection
_HOM_HALF_PS = 1000
_ANALYZER_HALF_PS = 1000
# Dead-time clusters still open when this few remain finish serially: a
# vectorised round costs several microseconds however few clusters it tests.
_SERIAL_CLUSTERS = 64

RECORD_DTYPE = np.dtype([("channel", "u1"), ("time_ps", "<u8")])


class McError(ValueError):
    """Invalid apparatus configuration or analysis input."""


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


@dataclass(frozen=True)
class ApparatusConfig:
    """Every physical parameter of one Monte Carlo run.

    The source and the heralding measurement are the same parameter sets the
    density-matrix route reads; the remaining fields are the apparatus's own
    pulse train, routing and detectors.
    """

    source: SourceParams = field(default_factory=SourceParams)
    bsm: BsmSettings = field(default_factory=BsmSettings)
    rep_rate_hz: float = 76e6
    mzi_delay_ns: float = 2.0
    efficiency: float | Mapping[str, float] = 0.8  # one value or one per channel
    dead_time_ns: float = 20.0
    dark_rate_hz: float = 0.0
    background_ratio: float = 0.0
    topology: str = "swap"  # swap | hbt_x | hbt_xx | hom
    hom_copolarized: bool = True
    bsm_delay_offset_ps: float = 0.0
    alice_setting: str | None = "H"
    bob_setting: str | None = "V"

    def __post_init__(self):
        if self.rep_rate_hz <= 0:
            raise McError("repetition rate must be positive")
        if self.topology not in ("swap", "hbt_x", "hbt_xx", "hom"):
            raise McError(f"unknown topology {self.topology!r}")
        for name, value in (
            ("dead time", self.dead_time_ns),
            ("dark rate", self.dark_rate_hz),
            ("background ratio", self.background_ratio),
        ):
            if value < 0:
                raise McError(f"{name} must be >= 0")
        if isinstance(self.efficiency, Mapping):
            if unknown := sorted(set(self.efficiency) - {"bsm1", "bsm2", "alice", "bob", "d1", "d2"}):
                raise McError(f"efficiency for unknown detectors {unknown}")
            bad = {k: v for k, v in self.efficiency.items() if not 0 <= v <= 1}
        else:
            bad = {} if 0 <= self.efficiency <= 1 else {"*": self.efficiency}
        if bad:
            raise McError(f"detector efficiencies outside [0, 1]: {bad}")
        for setting in (self.alice_setting, self.bob_setting):
            if setting is not None and setting not in POLARIZATION_KETS:
                raise McError(f"unknown analyzer setting {setting!r}")
        if self.mzi_delay_ns <= 0:
            raise McError("excitation-pulse splitting delay must be positive")

    @property
    def period_ns(self) -> float:
        return 1e9 / self.rep_rate_hz

    def channels(self) -> tuple[str, ...]:
        if self.topology == "swap":
            return ("bsm1", "bsm2", "alice", "bob")
        return ("d1", "d2")


@dataclass(frozen=True)
class TimestampStream:
    """Sorted per-channel detection times (int64 ps) plus reproducibility metadata."""

    channels: dict[str, np.ndarray]
    config: ApparatusConfig
    seed: int
    duration_s: float

    def __post_init__(self):
        for name, times in self.channels.items():
            arr = np.asarray(times)
            if arr.dtype.kind not in "iu":  # a float array would truncate silently
                raise McError(f"channel {name} times are {arr.dtype}, not integer ps")
            arr = arr.astype(np.int64, copy=False)
            if arr.size > 1 and np.any(np.diff(arr) < 0):
                raise McError(f"channel {name} times are not sorted")
            if arr.size and arr[0] < 0:
                raise McError(f"channel {name} has negative times")
            arr.setflags(write=False)
            self.channels[name] = arr

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def counts(self) -> dict[str, int]:
        return {name: int(arr.size) for name, arr in self.channels.items()}


def _signal_flux_per_pulse(config: ApparatusConfig) -> dict[str, float]:
    """Expected signal photons arriving per excitation pulse at each detector."""
    if config.topology in ("hbt_x", "hbt_xx"):
        return {"d1": 0.5, "d2": 0.5}
    if config.topology == "hom":
        return {"d1": 0.25, "d2": 0.25}
    flux = {"bsm1": 0.25, "bsm2": 0.25}
    for channel, setting in (("alice", config.alice_setting), ("bob", config.bob_setting)):
        flux[channel] = 0.5 if setting is None else 0.25
    return flux


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


# Destination configurations of the two X photons, (photon 1, photon 2) to
# Alice (A) or Bob (B), numbered 2 * (photon 1 to Bob) + (photon 2 to Bob).
_DEST_CONFIGS = (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B"))


def _swap_tables(config: ApparatusConfig) -> dict:
    """Joint outcome probability tables for the heralding topology.

    For each destination assignment of the two non-interfering photons, the
    interference branch samples (pattern, pass1, pass2) and the
    distinguishable branch samples (pol1, pol2, pass1, pass2), both from the
    exact Born probabilities of the four-photon state.

    ``cdfs`` holds the four interference CDFs, then the four distinguishable
    ones, in destination-config order, and ``draws`` their samplers of
    global outcomes: an interference CDF's outcome i is global outcome i, a
    distinguishable one's 32 + i. The lookup arrays ``pattern`` (-1 off the
    interference branch), ``pol1``, ``pol2`` (-1 off the distinguishable
    branch), ``x_pass1`` and ``x_pass2`` give its attributes.
    """
    rho4 = compose(emit_pair(config.source, 1), emit_pair(config.source, 2)).matrix
    pattern_ops = pattern_operators(1.0, config.bsm.convention)[_SAMPLED]
    h, v = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    pol_ops = np.array([np.kron(a, b) for a in (h, v) for b in (h, v)])
    analyzers = {
        "A": _analyzer_projectors(config.alice_setting),
        "B": _analyzer_projectors(config.bob_setting),
    }
    # Analyzer outcomes (pass,pass), (pass,fail), (fail,pass), (fail,fail) per destination config.
    x_ops = np.array(
        [[np.kron(a, b) for a in analyzers[d1] for b in analyzers[d2]] for d1, d2 in _DEST_CONFIGS]
    )
    # rho4 is ordered (X1, X2, XX1, XX2), so Tr[rho4 (x_op kron bsm_op)] pairs
    # its X indices (i, j) with the analyzer operator and its XX indices (k, l)
    # with the pattern or polarization operator.
    probs = np.einsum(
        "ikjl,cxji,mlk->cmx", rho4.reshape(4, 4, 4, 4), x_ops, np.concatenate([pattern_ops, pol_ops])
    ).real.clip(0.0, None)
    cdfs = []
    for block in (probs[:, :8], probs[:, 8:]):
        cdf = np.cumsum(block.reshape(4, -1), axis=1)
        cdfs.extend(cdf / cdf[:, -1:])
    # Global outcome g = 4 * pattern + x on the interference branch and
    # 32 + 8 * pol1 + 4 * pol2 + x on the distinguishable one.
    g = np.arange(48)
    ind = g < 32
    return {
        "cdfs": cdfs,
        "draws": [_sampler(cdf, 32 * (i >= 4)) for i, cdf in enumerate(cdfs)],
        "pattern": np.where(ind, g // 4, -1).astype(np.int8),
        "pol1": np.where(ind, -1, (g - 32) // 8).astype(np.int8),
        "pol2": np.where(ind, -1, g // 4 % 2).astype(np.int8),
        "x_pass1": g % 4 < 2,
        "x_pass2": g % 2 == 0,
    }


def _hom_tables(config: ApparatusConfig) -> dict:
    """The one interference-branch sampler of the HOM topology. Overlapping
    photons always have photon 1 on the long arm (V behind its half-wave plate
    when crossed) and photon 2 on the short arm (H), so the pattern weights are
    entry 2 p1 + p2 on the diagonal of each sampled pattern operator."""
    k = 0 if config.hom_copolarized else 2
    cdf = np.cumsum(pattern_operators(1.0)[_SAMPLED, k, k].real)
    return {"draw": _sampler(cdf / cdf[-1])}


def _ranker(cuts: np.ndarray, cells: int):
    """``x -> np.searchsorted(cuts, x, side="right")`` for sorted distinct
    ``cuts`` and x of their dtype, over about ``cells`` cells: int64 below its
    maximum (pair deltas), or float64 in [0, 1] (uniform draws against a CDF).

    Any nondecreasing cell map is exact: cuts in a lower cell than x's are
    below x and cuts in a higher one above it. So x is compared only with
    the ``depth`` cuts from ``first[cell]`` on, padded past the last cut
    with a value no x reaches (the int64 maximum, or NaN).
    """
    if cuts.dtype == np.int64:
        # Cells 2**k wide from the first cut. An x outside the cuts' span
        # falls in a cell below 0 or past ``last``, which ``rank`` clips.
        lo, k = cuts[0], (int(cuts[-1] - cuts[0]) // cells).bit_length()
        last, pad = int(cuts[-1] - lo) >> k, np.iinfo(np.int64).max

        def cell(x: np.ndarray) -> np.ndarray:
            y = x - lo
            y >>= k
            return y

    else:
        last, pad = cells, np.nan

        def cell(x: np.ndarray) -> np.ndarray:
            return (x * cells).astype(np.intp)

    first = np.bincount(cell(cuts) + 1, minlength=last + 2)  # the cuts per cell, one cell up
    depth = int(first.max())
    np.cumsum(first, out=first)  # the cuts in lower cells
    padded = np.concatenate([cuts, np.full(depth, pad, dtype=cuts.dtype)])

    def rank(x: np.ndarray) -> np.ndarray:
        r = first.take(cell(x), mode="clip")  # first[last + 1] counts every cut
        base = r.copy() if depth > 1 else r
        for t in range(depth):
            r += x >= padded[t:].take(base)
        return r

    return rank


def _sampler(cdf: np.ndarray, offset: int = 0):
    """``u -> np.searchsorted(cdf, u, side="right").clip(0, cdf.size - 1) +
    offset`` as uint8. Zero-probability outcomes repeat a CDF value and share
    one cut."""
    values, counts = np.unique(cdf, return_counts=True)
    outcome = (np.minimum(np.append(0, np.cumsum(counts)), cdf.size - 1) + offset).astype(np.uint8)
    rank = _ranker(values, _CATEGORICAL_CELLS)
    return lambda u: outcome.take(rank(u))


def _dead_time_filter(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """Sorted int ps ``times`` without the events that come less than
    ``dead_ps`` after the last kept one, tested as ``t - last >= dead_ps``.

    An event at least ``dead_ps`` after its predecessor starts a cluster and
    is always kept, since the last kept event is at or before the
    predecessor. The event after a start is always dropped. Each round tests
    the next event of every open cluster of three or more against that
    cluster's last kept time; the last few open clusters finish in one
    serial loop.
    """
    if dead_ps <= 0 or times.size < 2:
        return times
    # The cluster starts, then a sentinel start after the last event.
    keep = np.empty(times.size + 1, dtype=bool)
    keep[0] = keep[-1] = True
    np.greater_equal(np.diff(times), dead_ps, out=keep[1:-1])
    idx = np.flatnonzero(keep[:-3] & ~keep[1:-2] & ~keep[2:-1]) + 2
    last = times[idx - 2]
    while idx.size > _SERIAL_CLUSTERS:
        cand = times[idx]
        ok = cand - last >= dead_ps
        keep[idx] = ok
        np.copyto(last, cand, where=ok)
        idx += 1
        open_ = ~keep[idx]  # the next event is not the next cluster's start
        idx, last = idx.compress(open_), last.compress(open_)
    kept = []
    for c0, t_last in zip(idx.tolist(), last.tolist()):
        c1 = c0 + int(np.argmax(keep[c0:]))
        for t in times[c0:c1].tolist():
            if t - t_last >= dead_ps:
                kept.append(t)
                t_last = t
    # Times rise across clusters and a kept time is the first of its value in
    # its cluster (an equal earlier one would have been kept instead).
    keep[np.searchsorted(times, kept)] = True
    return np.compress(keep[:-1], times)


def _interferes(
    bsm: BsmSettings, e1: np.ndarray, e2: np.ndarray, off: float, u_flag: np.ndarray
) -> np.ndarray:
    """Interference flags of overlapping photon pairs with emission delays e1, e2.

    A pair interferes when the uniform draw ``u_flag`` falls below the
    coherence kernel exp(-2*gamma*|delta|) at its arrival-time difference,
    scaled by the intrinsic limit.
    """
    gamma = bsm.temporal_model().dephasing_rate
    delta = e1 - e2 + off
    support = (e1 + off >= 0.0) & (e2 - off >= 0.0)
    p_flag = bsm.intrinsic_limit * np.exp(-2.0 * gamma * np.abs(delta)) * support
    return u_flag < p_flag


def _pulse_arrivals(config: ApparatusConfig, start: int, arr1: np.ndarray, arr2: np.ndarray) -> None:
    """Turn the emission delays of the two pulses' photons into arrival times
    on the direct arm, in place: arr1 += base, arr2 += base + mzi."""
    base = (start + np.arange(arr1.size, dtype=float)) * config.period_ns
    arr1 += base
    base += config.mzi_delay_ns
    arr2 += base


def _route_pairs(a1, a2, u_swap, pattern, detector: dict, parts: dict) -> None:
    """Append each interfering pair's detection times to ``parts``: ``pattern``
    indexes ``_SAMPLED_PATTERNS``, ``u_swap`` picks the photon that takes its
    first mode (the two times are exchangeable), and ``detector`` maps an
    output mode (port, pol) to its channel; an unmapped mode goes undetected."""
    ta, tb = np.where(u_swap, a2, a1), np.where(u_swap, a1, a2)
    for oi, occupation in enumerate(_SAMPLED_PATTERNS):
        sel = pattern == oi
        for times, mode in zip((ta[sel], tb[sel]), occupation):
            if mode in detector:
                parts[detector[mode]].append(times)


def _chunk_swap(config: ApparatusConfig, tables: dict, start: int, n: int, rng) -> dict[str, np.ndarray]:
    mzi = config.mzi_delay_ns
    off = config.bsm_delay_offset_ps * 1e-3
    t1_xx, t1_x = config.bsm.t1_xx_ns, config.source.t1_x_ns

    # The draws keep their order and sizes, and each channel's parts keep
    # their order, so efficiency and jitter draw against the same detections.
    # Emission delays become arrival times in place. Masked gathers use
    # np.compress or index arrays: boolean indexing is about 4x slower on
    # masks this dense.
    arr1, t_x1, arr2, t_x2 = (rng.exponential(t1, n) for t1 in (t1_xx, t1_x, t1_xx, t1_x))
    xx1_port1, xx2_port1, x1_alice, x2_alice = (rng.random(n) < 0.5 for _ in range(4))
    # Interference only when the photons overlap at the splitter: emission 1
    # through the delayed arm against emission 2 through the direct arm.
    overlap = np.flatnonzero(xx1_port1 & ~xx2_port1)
    hit = _interferes(config.bsm, arr1[overlap], arr2[overlap], off, rng.random(n)[overlap])
    pairs = overlap[hit]  # the interfering periods
    del overlap, hit
    u_outcome = rng.random(n)
    u_swap = rng.random(n)[pairs] < 0.5
    out1_coin, out2_coin = (rng.random(n) < 0.5 for _ in range(2))  # distinguishable-branch ports

    # arr1 = base + e_xx1 (+ mzi + off on the delayed arm), t_x1 = base + e_xx1 + e_x1;
    # arr2 and t_x2 the same from base + mzi and emission 2.
    _pulse_arrivals(config, start, arr1, arr2)
    t_x1 += arr1
    t_x2 += arr2
    arr1 += xx1_port1 * (mzi + off)
    arr2 += xx2_port1 * (mzi + off)

    # Each period's outcome comes from the table of its group: the branch
    # (interference 0-3, distinguishable 4-7) by destination config. One
    # stable sort gathers the groups, and each group is one categorical draw.
    key = np.uint8(4) + np.uint8(2) * ~x1_alice + ~x2_alice
    key[pairs] -= 4
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(key, minlength=len(tables["draws"])))[:-1]
    groups = np.split(u_outcome[order], ends)
    del u_outcome
    outcome = np.empty(n, dtype=np.uint8)
    outcome[order] = np.concatenate([draw(u) for draw, u in zip(tables["draws"], groups)])
    del key, order, groups
    pol1, pol2, x_pass1, x_pass2 = (
        np.take(tables[k], outcome) for k in ("pol1", "pol2", "x_pass1", "x_pass2")
    )

    # Distinguishable branch: independent output routing, H/V projection
    # (pol1 and pol2 are -1 on the interference branch); the analyzers see both branches.
    parts = {
        "bsm1": [np.compress(out1_coin & (pol1 == 0), arr1), np.compress(out2_coin & (pol2 == 0), arr2)],
        "bsm2": [np.compress(~out1_coin & (pol1 == 1), arr1), np.compress(~out2_coin & (pol2 == 1), arr2)],
        "alice": [np.compress(x1_alice & x_pass1, t_x1), np.compress(x2_alice & x_pass2, t_x2)],
        "bob": [np.compress(~x1_alice & x_pass1, t_x1), np.compress(~x2_alice & x_pass2, t_x2)],
    }
    pattern = tables["pattern"][outcome[pairs]]
    _route_pairs(arr1[pairs], arr2[pairs], u_swap, pattern, _BSM_DETECTORS, parts)
    return {name: np.concatenate(p) for name, p in parts.items()}


def _chunk_hbt(config: ApparatusConfig, start: int, n: int, rng) -> dict[str, np.ndarray]:
    base = (start + np.arange(n, dtype=float)) * config.period_ns
    all_times = np.empty(2 * n)
    for times, pulse_offset in zip((all_times[:n], all_times[n:]), (0.0, config.mzi_delay_ns)):
        np.add(base, pulse_offset, out=times)
        times += rng.exponential(config.bsm.t1_xx_ns, n)
        if config.topology == "hbt_x":
            times += rng.exponential(config.source.t1_x_ns, n)
    del base
    to_d1 = rng.random(all_times.size) < 0.5
    # Boolean indexing, not np.compress: compress builds an index array first,
    # which lifts the peak from 4.5 to 5.5 float64 per period.
    return {"d1": all_times[to_d1], "d2": all_times[~to_d1]}


def _chunk_hom(config: ApparatusConfig, tables: dict, start: int, n: int, rng) -> dict[str, np.ndarray]:
    mzi = config.mzi_delay_ns
    off = config.bsm_delay_offset_ps * 1e-3

    # The draws keep their order and sizes. Each float draw becomes arrival
    # times in place or is cut to the overlapping pairs that use it, so a
    # chunk holds about three float arrays of n periods at once.
    arr1, arr2 = (rng.exponential(config.bsm.t1_xx_ns, n) for _ in range(2))
    # Input polarizer on each photon, then interferometer arm.
    present1, present2, long1, long2 = (rng.random(n) < 0.5 for _ in range(4))
    overlap = present1 & present2 & long1 & ~long2
    e1, e2 = arr1[overlap], arr2[overlap]
    # arr1 = base + e1 (+ mzi + off on the long arm), arr2 = base + mzi + e2 (+ the same).
    _pulse_arrivals(config, start, arr1, arr2)
    arr1 += long1 * (mzi + off)
    arr2 += long2 * (mzi + off)

    flag = overlap.copy()
    flag[overlap] = _interferes(config.bsm, e1, e2, off, rng.random(n)[overlap])
    u_outcome = rng.random(n)[flag]
    u_swap = rng.random(n)[flag] < 0.5
    route1, route2 = (rng.random(n) < 0.5 for _ in range(2))

    parts: dict[str, list] = {"d1": [], "d2": []}
    _route_pairs(arr1[flag], arr2[flag], u_swap, tables["draw"](u_outcome), _HOM_DETECTORS, parts)
    # Photons that do not interfere route independently.
    lone1, lone2 = present1 & ~flag, present2 & ~flag
    parts["d1"] += [np.compress(lone1 & route1, arr1), np.compress(lone2 & route2, arr2)]
    parts["d2"] += [np.compress(lone1 & ~route1, arr1), np.compress(lone2 & ~route2, arr2)]
    return {name: np.concatenate(p) for name, p in parts.items()}


def _period_count(duration_s: float, rep_rate_hz: float) -> int:
    """Whole periods in ``duration_s``: the largest n with n / rep_rate_hz <= duration_s.

    A duration written as P / rep_rate_hz thus gives P periods, where the
    rounded product duration_s * rep_rate_hz can fall just below P.
    """
    n = int(duration_s * rep_rate_hz)
    if (n + 1) / rep_rate_hz <= duration_s:
        return n + 1
    return n - 1 if n / rep_rate_hz > duration_s else n


def simulate(config: ApparatusConfig, duration_s: float, seed: int) -> TimestampStream:
    """Generate detector timestamp streams for the configured topology."""
    if not 0 < duration_s < math.inf:
        raise McError(f"duration must be positive and finite, got {duration_s}")
    n_periods = _period_count(duration_s, config.rep_rate_hz)
    channels = config.channels()
    efficiency = config.efficiency
    if not isinstance(efficiency, Mapping):
        efficiency = dict.fromkeys(channels, efficiency)
    elif missing := sorted(set(channels) - set(efficiency)):
        raise McError(f"efficiency mapping has no value for the {config.topology} detectors {missing}")
    sigma_ns = config.bsm.temporal_model().jitter_sigma_ns
    flux = _signal_flux_per_pulse(config)

    tables: dict = {}
    if config.topology == "swap":
        tables = _swap_tables(config)
    elif config.topology == "hom":
        tables = _hom_tables(config)

    n_chunks = max(1, -(-n_periods // _CHUNK_PERIODS))
    children = np.random.SeedSequence(seed).spawn(n_chunks)

    def run_chunk(ci: int) -> dict[str, np.ndarray]:
        start = ci * _CHUNK_PERIODS
        n = min(_CHUNK_PERIODS, n_periods - start)
        rng = np.random.default_rng(children[ci])
        if config.topology == "swap":
            raw = _chunk_swap(config, tables, start, n, rng)
        elif config.topology == "hom":
            raw = _chunk_hom(config, tables, start, n, rng)
        else:
            raw = _chunk_hbt(config, start, n, rng)
        out = {}
        span = (start * config.period_ns, (start + n) * config.period_ns)
        for name in channels:
            times = raw[name]
            eta = float(efficiency[name])
            if eta < 1.0:
                times = np.compress(rng.random(times.size) < eta, times)
            if config.background_ratio > 0.0:
                per_pulse = config.background_ratio * flux[name] * eta
                n_bg = rng.poisson(per_pulse * 2 * n)
                pulse = rng.integers(0, 2 * n, n_bg)
                bg = span[0] + (pulse // 2) * config.period_ns + (pulse % 2) * config.mzi_delay_ns
                bg += rng.random(n_bg) * _BACKGROUND_WINDOW_NS
                times = np.concatenate([times, bg])
            if sigma_ns > 0.0 and times.size:
                times += rng.normal(0.0, sigma_ns, times.size)
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
            ps.sort()
            out[name] = ps
        return out

    if n_periods == 0:
        merged = {name: np.empty(0, dtype=np.int64) for name in channels}
    else:
        workers = min(worker_count(), n_chunks)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                chunk_results = list(pool.map(run_chunk, range(n_chunks)))
        else:
            chunk_results = [run_chunk(ci) for ci in range(n_chunks)]
        merged = {name: np.concatenate([c[name] for c in chunk_results]) for name in channels}
        end = math.ceil(n_periods * config.period_ns * 1000.0)  # whole ps before the last period's end
        for name in channels:
            times = merged[name]
            times = times[(times >= 0) & (times < end)]
            # The chunks arrive sorted, so a stable (merge) sort is near-linear.
            times.sort(kind="stable")
            merged[name] = _dead_time_filter(times, math.ceil(config.dead_time_ns * 1000.0))
    return TimestampStream(merged, config, int(seed), float(duration_s))


def write_stream(stream: TimestampStream, path: str | os.PathLike) -> None:
    """Binary record stream {u8 channel, u64 time in ps} plus a JSON sidecar."""
    path = Path(path)
    names = sorted(stream.channels)
    ids = {name: i for i, name in enumerate(names)}
    times = [stream.channels[name] for name in names]
    records = np.empty(sum(t.size for t in times), dtype=RECORD_DTYPE)
    records["channel"] = np.repeat(np.arange(len(names)), [t.size for t in times])
    records["time_ps"] = np.concatenate([np.empty(0, dtype=np.int64), *times])
    records = records[np.argsort(records["time_ps"], kind="stable")]
    records.tofile(path)
    sidecar = {
        "config": to_dict(stream.config),
        "config_hash": stream.config_hash,
        "seed": stream.seed,
        "duration_s": stream.duration_s,
        "channels": ids,
        "records": int(records.size),
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def read_stream(path: str | os.PathLike) -> TimestampStream:
    """The stream ``write_stream`` wrote, checked against its sidecar's record
    count and channel ids."""
    path = Path(path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    try:
        config = from_dict(ApparatusConfig, sidecar.get("config"), "sidecar config", complete=True)
        missing = sorted({"channels", "seed", "duration_s", "records"} - set(sidecar))
        if missing:
            raise ValueError(f"missing keys {missing} in sidecar")
    except ValueError as exc:
        raise McError(f"{path.with_suffix('.json')}: {exc}") from exc
    size = path.stat().st_size
    if size % RECORD_DTYPE.itemsize:
        raise McError(f"{path}: {size} bytes is not a whole number of {RECORD_DTYPE.itemsize}-byte records")
    records = np.fromfile(path, dtype=RECORD_DTYPE)
    if records.size != sidecar["records"]:
        raise McError(f"{path}: {records.size} records, the sidecar says {sidecar['records']}")
    ids = records["channel"]
    if unknown := sorted(set(np.unique(ids).tolist()) - set(sidecar["channels"].values())):
        raise McError(f"{path}: channel ids {unknown} are not named in the sidecar")
    channels = {name: records["time_ps"][ids == cid].view("<i8") for name, cid in sidecar["channels"].items()}
    return TimestampStream(channels, config, int(sidecar["seed"]), float(sidecar["duration_s"]))


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
    in [t + lo, t + hi)."""
    first = _block_ranks(ta + lo, tb)
    return first, _block_ranks(ta + hi, tb) - first


def _pair_chunks(ta: np.ndarray, tb: np.ndarray, lo: int, hi: int):
    """Yield the paired times (a, b) of every ta event a with each of its
    ``_partners`` b, ordered by ta event, then by tb event, as new arrays.

    Pairs are cut into chunks of at most ``_PAIR_BUDGET``, splitting inside a
    ta event's partners where needed, so memory does not grow with the pair
    count.
    """
    first, counts = _partners(ta, tb, lo, hi)
    ends = np.cumsum(counts)
    # Pair p (numbered across all events) of event a is tb[p + shift[a]].
    shift = np.subtract(first, ends - counts, out=first)
    total = int(ends[-1]) if ends.size else 0
    for p0 in range(0, total, _PAIR_BUDGET):
        p1 = min(p0 + _PAIR_BUDGET, total)
        # The events holding the chunk's first and last pair.
        a0, a1 = np.searchsorted(ends, (p0, p1 - 1), side="right")
        n = counts[a0 : a1 + 1].copy()
        n[0] -= p0 - (ends[a0] - counts[a0])
        n[-1] -= ends[a1] - p1
        bi = np.arange(p0, p1) + np.repeat(shift[a0 : a1 + 1], n)
        yield np.repeat(ta[a0 : a1 + 1], n), tb[bi]


def _coincidences(
    ta: np.ndarray,
    tb: np.ndarray,
    span_ps: float,
    offsets_ps: Sequence[float],
    half_ps: float,
    bin_ps: float | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, list[int]]:
    """Streamed coincidence counts of the pair deltas d = b - a with
    -span_ps <= d < span_ps.

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
        if not bin_ps > 0:
            raise McError(f"histogram bin width must be positive, got {bin_ps}")
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
    rank = _ranker(distinct, 2 * distinct.size)
    segments = np.zeros(distinct.size + 1, dtype=np.int64)
    del distinct  # the ranker holds its own copy
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


def g2_histogram(stream: TimestampStream, bin_ps: float = 100.0) -> G2Result:
    """Pulsed d1-d2 cross-correlation histogram and the zero-delay peak ratio.

    g2_zero is the central-peak area divided by the mean area of the five
    peaks on either side, at multiples of the pulse period. Histogram counts
    are raw coincidences.
    """
    for name in ("d1", "d2"):
        if name not in stream.channels:
            raise McError(f"stream has no channel {name!r}")
    ta, tb = stream.channels["d1"], stream.channels["d2"]
    if ta.size == 0 or tb.size == 0:
        raise McError("empty stream")
    period = stream.config.period_ns
    offsets = [0.0] + [sign * k * period * 1000.0 for k in range(1, 6) for sign in (-1.0, 1.0)]
    centers, hist, (central, *side) = _coincidences(ta, tb, 5.5 * period * 1000.0, offsets, _G2_HALF_PS, bin_ps)
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


def _hom_single(stream: TimestampStream, bin_ps: float) -> HomHistogram:
    ta, tb = stream.channels["d1"], stream.channels["d2"]
    if ta.size == 0 or tb.size == 0:
        raise McError("empty stream")
    mzi = stream.config.mzi_delay_ns
    offsets = [k * mzi for k in (-2, -1, 0, 1, 2)]
    offsets_ps = [1000.0 * offset for offset in offsets]
    centers, hist, counts = _coincidences(ta, tb, 2.5 * mzi * 1000.0, offsets_ps, _HOM_HALF_PS, bin_ps)
    cluster = dict(zip(offsets, counts))
    return HomHistogram(centers, hist, cluster[0.0], cluster)


def hom_histogram(streams: tuple[TimestampStream, TimestampStream], bin_ps: float = 100.0) -> HomResult:
    """Five-peak coincidence clusters for a co/cross stream pair plus visibility."""
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


def fourfold_coincidences(stream: TimestampStream, gate_ps: float) -> int:
    """Count BSM1 & BSM2 & Alice & Bob coincidences.

    A BSM pair (t1, t2) counts when -gate/2 <= t2 - t1 < gate/2 (an infinite
    gate takes every pair). An analyzer detection t hits the heralding time
    c = (t1 + t2) / 2 when c - X <= t < c + X, X = ``_ANALYZER_HALF_PS``;
    Alice's c is shifted back by the compensation delay in whole ps.
    """
    cfg = stream.config
    if cfg.topology != "swap":
        raise McError("four-fold analysis expects the heralding topology")
    if not gate_ps > 0:
        raise McError(f"gate width must be positive (inf allowed), got {gate_ps}")
    ch = stream.channels
    b1, b2 = ch["bsm1"], ch["bsm2"]
    # No pair is further apart than the last BSM event's time, so a wider
    # gate, an infinite one too, gives the same pairs with int64 window ends.
    half = min(gate_ps / 2.0, 1 + max((int(t[-1]) for t in (b1, b2) if t.size), default=0))
    delay = round(cfg.mzi_delay_ns * 1000.0)
    count = 0
    for t1, t_bsm in _pair_chunks(b1, b2, -math.floor(half), math.ceil(half)):
        # c is whole or half a ps, so for whole-ps t and X the analyzer test
        # c - X <= t < c + X is ceil(c) - X <= t < ceil(c) + X.
        t_bsm += t1 + 1
        t_bsm >>= 1  # ceil(c)
        # Emission 1 feeds Alice one compensation delay before the heralding
        # time; emission 2 feeds Bob right at it.
        hit = _partners(t_bsm - delay, ch["alice"], -_ANALYZER_HALF_PS, _ANALYZER_HALF_PS)[1] > 0
        hit &= _partners(t_bsm, ch["bob"], -_ANALYZER_HALF_PS, _ANALYZER_HALF_PS)[1] > 0
        count += int(np.count_nonzero(hit))
    return count


def twofold_control_coincidences(stream: TimestampStream) -> int:
    """Alice-Bob coincidences around the emission separation, no BSM condition."""
    cfg = stream.config
    if cfg.topology != "swap":
        raise McError("control analysis expects the heralding topology")
    alice, bob = stream.channels["alice"], stream.channels["bob"]
    mzi = cfg.mzi_delay_ns * 1000.0
    _, _, (count,) = _coincidences(alice, bob, 3.0 * mzi, [mzi], _ANALYZER_HALF_PS)
    return count


@dataclass(frozen=True)
class ScanPoint:
    delay_ps: float
    copolarized: bool
    fourfolds: int


def fourfold_scan(streams: Sequence[TimestampStream], gate_ps: float) -> list[ScanPoint]:
    """Four-fold counts per mutual-delay stream, co/cross read from the config."""
    points = []
    for stream in streams:
        cfg = stream.config
        co = cfg.alice_setting == cfg.bob_setting
        points.append(ScanPoint(float(cfg.bsm_delay_offset_ps), co, fourfold_coincidences(stream, gate_ps)))
    return points


@dataclass(frozen=True)
class DoubleExponentialFit:
    amplitude: float
    center: float
    left_rate: float
    right_rate: float
    offset: float
    residual_norm: float


def fit_double_exponential(x: np.ndarray, y: np.ndarray) -> DoubleExponentialFit:
    """Least-squares fit of A*exp(-|t-t0|*r_side) + c with side-dependent rates.

    Initialized deterministically from peak position and half-area widths.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 5:
        raise McError("need at least 5 histogram points")
    order = np.argsort(x)
    x, y = x[order], y[order]
    n_edge = max(1, x.size // 10)
    offset0 = float(np.median(np.concatenate([y[:n_edge], y[-n_edge:]])))
    peak = int(np.argmax(y))
    amp0 = max(float(y[peak] - offset0), 1e-9)
    center0 = float(x[peak])
    above = np.nonzero(y - offset0 > amp0 / 2.0)[0]
    width = float(np.mean(np.diff(x)))
    if above.size:
        width = max(float(x[above[-1]] - x[above[0]]), width)
    rate0 = 2.0 * math.log(2.0) / width

    def model(p):
        a, t0, rl, rr, c = p
        rate = np.where(x < t0, rl, rr)
        return a * np.exp(-np.abs(x - t0) * rate) + c

    from scipy.optimize import least_squares

    p0 = np.array([amp0, center0, rate0, rate0, offset0])
    bounds = (
        [0.0, float(x[0]), 1e-12, 1e-12, -np.inf],
        [np.inf, float(x[-1]), np.inf, np.inf, np.inf],
    )
    result = least_squares(lambda p: model(p) - y, p0, bounds=bounds, max_nfev=20000)
    if not result.success:
        raise McError(f"double-exponential fit did not converge: {result.message}")
    a, t0, rl, rr, c = result.x
    return DoubleExponentialFit(
        amplitude=float(a),
        center=float(t0),
        left_rate=float(rl),
        right_rate=float(rr),
        offset=float(c),
        residual_norm=float(np.linalg.norm(result.fun)),
    )


def simulate_tomography_run(
    config: ApparatusConfig,
    settings: Sequence[MeasurementSetting],
    periods_per_setting: int,
    seed: int,
    heralded: bool,
    gate_ps: float = math.inf,
) -> TomographyRun:
    """Per-setting coincidence counts from independent simulation runs.

    Heralded counts are four-folds inside the gate; an infinite gate falls
    back to a 2 ns pairing window, wide enough for every overlapped pair while
    still excluding neighbouring-pulse coincidences. Unheralded counts are
    Alice-Bob control coincidences ignoring the heralding signal.
    """
    duration = periods_per_setting / config.rep_rate_hz
    child_seeds = np.random.SeedSequence(seed).generate_state(len(settings))
    counts = []
    effective_gate = gate_ps if math.isfinite(gate_ps) else 2e3
    for setting, child in zip(settings, child_seeds):
        run_cfg = replace(config, alice_setting=setting.projector_a, bob_setting=setting.projector_b)
        stream = simulate(run_cfg, duration, int(child))
        count = fourfold_coincidences(stream, effective_gate) if heralded else twofold_control_coincidences(stream)
        counts.append(count)
    return TomographyRun(tuple(settings), np.array(counts, dtype=float))
