import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_pairs_coincidences,
    categorical_oracle,
    full_array_chunk_hbt,
    full_array_chunk_hom,
    full_array_chunk_swap,
    loop_fourfold,
    loop_swap_tables,
    serial_dead_time_filter,
)

from swapsim import cli, mc
from swapsim.interference import BsmConvention, BsmSettings
from swapsim.mc import (
    ApparatusConfig,
    McError,
    TimestampStream,
    fit_double_exponential,
    fourfold_coincidences,
    fourfold_scan,
    g2_histogram,
    hom_histogram,
    read_stream,
    simulate,
    simulate_tomography_run,
    twofold_control_coincidences,
    write_stream,
)
from swapsim.params import config_hash, from_dict, to_dict
from swapsim.tomography import standard_settings

FAST = dict(efficiency=0.8, dead_time_ns=0.0)


def _periods(cfg: ApparatusConfig, n: int) -> float:
    return n / cfg.rep_rate_hz


def test_config_validation():
    with pytest.raises(McError):
        ApparatusConfig(topology="ring")
    with pytest.raises(McError):
        ApparatusConfig(efficiency=1.4)
    with pytest.raises(McError):
        ApparatusConfig(alice_setting="Q")
    with pytest.raises(McError):
        ApparatusConfig(dark_rate_hz=-1.0)


@pytest.mark.parametrize(
    "times, message",
    [
        (np.array([1000, 500]), "not sorted"),
        (np.array([-1000, 500]), "negative"),
        (np.array([0.0, 1000.0]), "float64, not integer ps"),
        (np.empty(0), "float64, not integer ps"),
        (np.array([0, 1], dtype=np.uint64) - np.uint64(2), "negative"),
    ],
)
def test_stream_rejects_malformed_times(times, message):
    with pytest.raises(McError, match=message):
        TimestampStream({"d1": times}, ApparatusConfig(), 0, 1.0)


def test_stream_holds_int64_ps():
    stream = TimestampStream({"d1": np.array([0, 7], dtype=np.uint32)}, ApparatusConfig(), 0, 1.0)
    assert stream.channels["d1"].dtype == np.int64 and stream.channels["d1"].tolist() == [0, 7]


def test_config_dict_round_trip():
    cfg = ApparatusConfig(topology="hom", background_ratio=0.002, efficiency=0.5)
    back = from_dict(ApparatusConfig, to_dict(cfg))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


def test_seed_determinism():
    cfg = ApparatusConfig(**FAST)
    a = simulate(cfg, _periods(cfg, 50_000), seed=42)
    b = simulate(cfg, _periods(cfg, 50_000), seed=42)
    for name in a.channels:
        assert np.array_equal(a.channels[name], b.channels[name])
    c = simulate(cfg, _periods(cfg, 50_000), seed=43)
    assert any(not np.array_equal(a.channels[k], c.channels[k]) for k in a.channels)


def test_zero_efficiency_empty_stream():
    cfg = ApparatusConfig(efficiency=0.0, dark_rate_hz=0.0, dead_time_ns=0.0)
    stream = simulate(cfg, _periods(cfg, 10_000), seed=1)
    assert all(arr.size == 0 for arr in stream.channels.values())


def test_duration_scaling():
    cfg = ApparatusConfig(**FAST)
    short = simulate(cfg, _periods(cfg, 100_000), seed=9)
    long = simulate(cfg, _periods(cfg, 200_000), seed=10)
    for name in ("alice", "bob"):
        ratio = long.counts()[name] / short.counts()[name]
        assert ratio == pytest.approx(2.0, rel=0.05)


def test_signal_rate_target():
    eta = 0.5e6 / 76e6
    cfg = ApparatusConfig(
        efficiency=eta, alice_setting=None, bob_setting=None, dead_time_ns=20.0
    )
    stream = simulate(cfg, 0.2, seed=99)
    rate = stream.counts()["alice"] / 0.2
    assert abs(rate - 0.5e6) / 0.5e6 < 0.02


def test_dead_time_suppresses_close_events():
    cfg = ApparatusConfig(efficiency=1.0, alice_setting=None, bob_setting=None,
                          dead_time_ns=20.0, bsm=BsmSettings(jitter_ps=0.0))
    stream = simulate(cfg, _periods(cfg, 20_000), seed=5)
    gaps = np.diff(stream.channels["alice"])
    assert gaps.size > 0
    assert gaps.min() >= 20_000


def test_stream_io_round_trip(tmp_path):
    cfg = ApparatusConfig(**FAST)
    stream = simulate(cfg, _periods(cfg, 20_000), seed=12)
    path = tmp_path / "run.bin"
    write_stream(stream, path)
    assert path.exists() and path.with_suffix(".json").exists()
    back = read_stream(path)
    assert back.seed == stream.seed
    assert back.duration_s == stream.duration_s
    assert back.config_hash == stream.config_hash
    for name in stream.channels:
        assert back.channels[name].dtype == np.int64
        assert np.array_equal(back.channels[name], stream.channels[name])


def test_simulate_rounds_each_time_once_to_whole_ps(monkeypatch):
    # Nearest ps, half to even (2.5 and 3.5 ps exactly), then the span cut on
    # the rounded times: -0.4 ps is kept as 0, -0.6 ps is not, and a time
    # 0.4 ps before the end of the last period rounds up past it.
    cfg = ApparatusConfig(topology="hbt_xx", efficiency=1.0, dead_time_ns=0.0, bsm=BsmSettings(jitter_ps=0.0))
    end_ns = 10 * cfg.period_ns
    assert (0.0025 * 1000.0, 0.0035 * 1000.0, math.ceil(end_ns * 1000.0)) == (2.5, 3.5, 131_579)
    raw = np.array([2.4996, 1.0004, 0.0035, 0.0025, 0.0006, -0.0004, -0.0006, end_ns - 0.0004, end_ns - 0.0006])
    monkeypatch.setattr(mc, "_chunk_hbt", lambda config, start, n, rng: {"d1": raw.copy(), "d2": raw[:1].copy()})
    stream = simulate(cfg, _periods(cfg, 10), seed=1)
    assert stream.channels["d1"].dtype == np.int64
    assert stream.channels["d1"].tolist() == [0, 1, 2, 4, 1000, 2500, 131_578]
    assert stream.channels["d2"].tolist() == [2500]


# The config block of a sidecar written before each parameter had one owner.
_OLD_SIDECAR_CONFIG = {
    "alice_setting": "H", "background_ratio": 0.0, "bob_setting": "V",
    "bsm_convention": "psi_plus", "bsm_delay_offset_ps": 0.0, "dark_rate_hz": 0.0,
    "dead_time_ns": 20.0, "detector_efficiency": 0.8, "hom_copolarized": True,
    "intrinsic_limit": 0.938878, "jitter_fwhm_ps": 50.0, "mzi_delay_ns": 2.0,
    "rep_rate_hz": 76000000.0, "signal_rate_target_hz": 500000.0,
    "source": {
        "model": {"fss_uev": 0.0, "kind": "dephasing", "strength": 0.0, "t1_x_ns": 0.25},
        "t1_x_ns": 0.25, "t1_xx_ns": 0.12, "target_fidelity_1": 0.9369,
        "target_fidelity_2": 0.9267,
    },
    "t1_x_ns": 0.25, "t1_xx_ns": 0.12, "t2_xx_ns": 0.14545, "topology": "swap",
}


def test_read_stream_rejects_bad_sidecar(tmp_path):
    cfg = ApparatusConfig(**FAST)
    path = tmp_path / "run.bin"
    write_stream(simulate(cfg, _periods(cfg, 2_000), seed=12), path)
    sidecar_path = path.with_suffix(".json")
    sidecar = json.loads(sidecar_path.read_text())

    sidecar_path.write_text(json.dumps({**sidecar, "config": _OLD_SIDECAR_CONFIG}))
    with pytest.raises(McError, match="signal_rate_target_hz"):
        read_stream(path)

    no_source = {k: v for k, v in to_dict(cfg).items() if k != "source"}
    sidecar_path.write_text(json.dumps({**sidecar, "config": no_source}))
    with pytest.raises(McError, match="source"):
        read_stream(path)

    bad_value = {**to_dict(cfg), "dead_time_ns": "soon"}
    sidecar_path.write_text(json.dumps({**sidecar, "config": bad_value}))
    with pytest.raises(McError, match="dead_time_ns"):
        read_stream(path)

    for key in ("channels", "seed", "duration_s", "records"):
        partial = {k: v for k, v in sidecar.items() if k != key}
        sidecar_path.write_text(json.dumps(partial))
        with pytest.raises(McError, match=key):
            read_stream(path)

    # A channel id the sidecar does not name would be dropped.
    named = dict(list(sidecar["channels"].items())[1:])
    sidecar_path.write_text(json.dumps({**sidecar, "channels": named}))
    with pytest.raises(McError, match="channel ids \\[0\\] are not named"):
        read_stream(path)

    sidecar_path.write_text(json.dumps({**sidecar, "records": sidecar["records"] + 1}))
    with pytest.raises(McError, match=f"{sidecar['records']} records, the sidecar says"):
        read_stream(path)

    # A file cut inside a record, then by one whole record.
    sidecar_path.write_text(json.dumps(sidecar))
    data = path.read_bytes()
    path.write_bytes(data[:-13])
    with pytest.raises(McError, match="not a whole number of 9-byte records"):
        read_stream(path)
    path.write_bytes(data[:-9])
    with pytest.raises(McError, match="records, the sidecar says"):
        read_stream(path)
    path.write_bytes(data)
    assert sum(read_stream(path).counts().values()) == sidecar["records"]


def test_g2_structure_and_purity():
    cfg = ApparatusConfig(topology="hbt_xx", background_ratio=0.0, **FAST)
    stream = simulate(cfg, _periods(cfg, 400_000), seed=21)
    result = g2_histogram(stream)
    period = cfg.period_ns
    # side peaks at multiples of the pulse period
    assert all(c > 0 for c in result.side_counts)
    assert result.central_counts == 0
    assert result.g2_zero < 1e-4
    # the histogram has mass near +-period and none at half a period
    centers = result.bin_centers_ps
    near_period = np.abs(np.abs(centers) - period * 1000) < 500
    off_peak = np.abs(np.abs(centers) - period * 500) < 500
    assert result.counts[near_period].sum() > 0
    assert result.counts[off_peak].sum() == 0


def test_g2_background_band():
    cfg = ApparatusConfig(topology="hbt_xx", background_ratio=0.0055, **FAST)
    stream = simulate(cfg, _periods(cfg, 2_000_000), seed=22)
    result = g2_histogram(stream)
    assert 0.002 < result.g2_zero < 0.008


def test_g2_empty_stream():
    cfg = ApparatusConfig(topology="hbt_xx", efficiency=0.0, dead_time_ns=0.0)
    stream = simulate(cfg, _periods(cfg, 1000), seed=3)
    with pytest.raises(McError):
        g2_histogram(stream)


def test_hom_visibility_and_clusters():
    base = ApparatusConfig(topology="hom", **FAST)
    co = simulate(replace(base, hom_copolarized=True), _periods(base, 800_000), seed=31)
    cross = simulate(replace(base, hom_copolarized=False), _periods(base, 800_000), seed=32)
    result = hom_histogram((co, cross))
    assert result.visibility == pytest.approx(0.569, abs=0.02)
    # five-peak cluster: outer peaks roughly half the inner ones, centre suppressed
    cl = result.crossed.cluster_counts
    assert cl[-2.0] > 1.5 * cl[-4.0]
    assert cl[2.0] > 1.5 * cl[4.0]
    assert result.copolarized.central_counts < 0.6 * result.crossed.central_counts

    # feeding two crossed runs yields no visibility
    cross2 = simulate(replace(base, hom_copolarized=False), _periods(base, 800_000), seed=33)
    co_like = TimestampStream(
        dict(cross2.channels), replace(cross2.config, hom_copolarized=True), cross2.seed,
        cross2.duration_s,
    )
    null = hom_histogram((co_like, cross))
    assert abs(null.visibility) < 0.05


def test_hom_mismatched_delay_rejected():
    base = ApparatusConfig(topology="hom", **FAST)
    co = simulate(replace(base, hom_copolarized=True), _periods(base, 10_000), seed=1)
    cross = simulate(
        replace(base, hom_copolarized=False, mzi_delay_ns=2.5), _periods(base, 10_000), seed=2
    )
    with pytest.raises(McError):
        hom_histogram((co, cross))
    with pytest.raises(McError):
        hom_histogram((cross, co))


def test_fourfold_scan_shape_and_fit():
    base = ApparatusConfig(**FAST)
    delays = [-600.0, -400.0, -200.0, 0.0, 200.0, 400.0, 600.0]
    streams = []
    for i, d in enumerate(delays):
        for j, (a, b) in enumerate((("D", "D"), ("D", "A"))):
            cfg = replace(base, bsm_delay_offset_ps=d, alice_setting=a, bob_setting=b)
            streams.append(simulate(cfg, _periods(cfg, 400_000), seed=900 + 10 * i + j))
    points = fourfold_scan(streams, gate_ps=2000.0)
    co = {p.delay_ps: p.fourfolds for p in points if p.copolarized}
    cross = {p.delay_ps: p.fourfolds for p in points if not p.copolarized}
    assert co[0.0] > 1.8 * cross[0.0]
    # zero-delay contrast consistent with the ungated heralded coherence:
    # P(co)/P(cross) = (1+u)/(1-u) with u about 0.424
    ratio = co[0.0] / max(cross[0.0], 1)
    assert 1.9 < ratio < 3.2
    assert abs(co[600.0] - cross[600.0]) < 0.35 * max(co[0.0] - cross[0.0], 1)
    x = np.array(sorted(co))
    y = np.array([float(co[d]) for d in sorted(co)])
    fit = fit_double_exponential(x, y)
    assert abs(fit.center) <= 200.0  # within one grid step of zero delay


def test_gate_sweep_matches_quadrature_model():
    # event-level gating reproduces the analytic indistinguishability curve
    from swapsim.interference import (
        CALIBRATED_INTRINSIC_LIMIT,
        CALIBRATED_T2_XX_NS,
        TemporalModel,
        effective_indistinguishability,
    )

    base = ApparatusConfig(**FAST)
    counts = {}
    for j, (a, b) in enumerate((("D", "D"), ("D", "A"))):
        cfg = replace(base, alice_setting=a, bob_setting=b)
        stream = simulate(cfg, _periods(cfg, 4_000_000), seed=700 + j)
        counts[(a, b)] = {g: fourfold_coincidences(stream, g) for g in (2000.0, 200.0, 47.0)}
    model = TemporalModel(0.12, CALIBRATED_T2_XX_NS, 50.0)
    c1c2 = (2 * 0.9369 - 1) * (2 * 0.9267 - 1)
    prev_total = math.inf
    for gate in (2000.0, 200.0, 47.0):
        dd, da = counts[("D", "D")][gate], counts[("D", "A")][gate]
        total = dd + da
        assert total < prev_total  # tighter gates cost rate
        prev_total = total
        u_mc = (dd - da) / total
        u_model = (
            effective_indistinguishability(model.with_gate(gate), CALIBRATED_INTRINSIC_LIMIT)
            * c1c2
        )
        assert abs(u_mc - u_model) < 4.0 / math.sqrt(total)


def test_fit_double_exponential_exact():
    x = np.linspace(-800, 800, 81)
    truth = dict(amplitude=120.0, center=40.0, left_rate=0.004, right_rate=0.008, offset=5.0)
    rate = np.where(x < truth["center"], truth["left_rate"], truth["right_rate"])
    y = truth["amplitude"] * np.exp(-np.abs(x - truth["center"]) * rate) + truth["offset"]
    fit = fit_double_exponential(x, y)
    assert fit.amplitude == pytest.approx(truth["amplitude"], abs=1e-5)
    assert fit.center == pytest.approx(truth["center"], abs=1e-4)
    assert fit.left_rate == pytest.approx(truth["left_rate"], rel=1e-5)
    assert fit.right_rate == pytest.approx(truth["right_rate"], rel=1e-5)
    assert fit.offset == pytest.approx(truth["offset"], abs=1e-5)
    assert fit.residual_norm < 1e-6


def test_fit_double_exponential_flat():
    x = np.linspace(-500, 500, 41)
    y = np.full_like(x, 7.0)
    fit = fit_double_exponential(x, y)
    assert fit.amplitude == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(McError):
        fit_double_exponential(x[:3], y[:3])


def test_histogram_counts_are_raw():
    cfg = ApparatusConfig(topology="hbt_xx", **FAST)
    stream = simulate(cfg, _periods(cfg, 100_000), seed=77)
    result = g2_histogram(stream)
    assert result.counts.dtype.kind in "iu"
    assert result.counts.sum() >= result.central_counts + sum(result.side_counts)


# Times on a 125 ps grid, each moved by 0, 1 or 2 ps: deltas fall exactly on,
# and 1 or 2 ps either side of, +-span, every bin edge (41 bins of 250 ps over
# +-5125 ps) and the shared edges of touching windows.
_GRID_TIMES = st.lists(st.tuples(st.integers(0, 192), st.sampled_from([0, 1, 2])), max_size=40).map(
    lambda v: np.sort(np.array([125 * k + e for k, e in v], dtype=np.int64))
)
# HOM-like windows: +-1 ns at 2 ns spacing, touching at their edges.
_OFFSETS = [-4000.0, -2000.0, 0.0, 2000.0, 4000.0]
_SPAN = 5125.0


@given(ta=_GRID_TIMES, tb=_GRID_TIMES, budget=st.sampled_from([1, 2, 3, 5, 64, mc._PAIR_BUDGET]))
@settings(max_examples=200)
def test_streamed_coincidences_match_all_pairs(ta, tb, budget):
    with mock.patch.object(mc, "_PAIR_BUDGET", budget):
        centers, hist, windows = mc._coincidences(ta, tb, _SPAN, _OFFSETS, 1000, 250.0)
        no_hist = mc._coincidences(ta, tb, _SPAN, _OFFSETS, 1000)
    want_centers, want_hist, want_windows = all_pairs_coincidences(ta, tb, _SPAN, _OFFSETS, 1000, 250.0)
    assert np.array_equal(centers, want_centers) and np.allclose(np.diff(centers), 250.0)
    assert np.array_equal(hist, want_hist) and hist.dtype == np.int64
    assert windows == want_windows
    assert no_hist == (None, None, want_windows)


def test_streamed_coincidences_edges_and_empty_channels():
    # Pairs span [-span, span): -5000 is a pair, +5000 is not; a delta on a
    # shared window edge counts in both windows.
    ta, tb = np.array([0]), np.array([-5000, -3000, -1000, 1000, 3000, 5000])
    _, hist, windows = mc._coincidences(ta, tb, 5000.0, _OFFSETS, 1000, 250.0)
    assert windows == [2, 2, 2, 2, 1]
    assert hist.sum() == 5
    # The last bin takes every delta up to the pair window's end.
    _, hist, _ = mc._coincidences(ta, np.array([4999, 5000]), 5000.0, [0.0], 500, 100.0)
    assert hist[-1] == 1 and hist.sum() == 1
    empty = np.empty(0, dtype=np.int64)
    for a, b in ((ta, empty), (empty, tb)):
        _, hist, windows = mc._coincidences(a, b, 5000.0, _OFFSETS, 1000, 250.0)
        assert hist.shape == (41,) and hist.sum() == 0 and windows == [0] * 5
    cfg = ApparatusConfig()
    stream = TimestampStream({"alice": empty, "bob": tb + 10_000}, cfg, 0, 1.0)
    assert twofold_control_coincidences(stream) == 0


def test_one_event_with_more_partners_than_the_budget():
    ta = np.array([0, 500])
    tb = np.linspace(-4000, 4000, 3 * mc._PAIR_BUDGET + 7).astype(np.int64)
    got = mc._coincidences(ta, tb, 5000.0, _OFFSETS, 1000, 250.0)
    want = all_pairs_coincidences(ta, tb, 5000.0, _OFFSETS, 1000, 250.0)
    assert got[1].sum() == 2 * tb.size
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2] == want[2]


def _neighbours(values, steps: int = 2) -> np.ndarray:
    """``values`` and the ``steps`` floats on either side of each."""
    out = [np.asarray(values, dtype=float)]
    for direction in (-np.inf, np.inf):
        v = out[0]
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


@given(
    cuts=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-300), st.integers(0, 64).map(lambda k: k / 64.0)),
        min_size=1,
        max_size=40,
    ),
    cells=st.integers(1, 600),
    extra=st.lists(st.floats(0.0, 1.0), max_size=30),
)
@example(cuts=[0.0, 0.0, 0.125, 0.125, 0.125, 1.0], cells=8, extra=[])
@example(cuts=[0.0, 1e-300, 5e-324], cells=256, extra=[0.0, -0.0])
@settings(max_examples=300)
def test_ranker_matches_searchsorted(cuts, cells, extra):
    values = np.unique(cuts)
    # Each cut, every cell boundary j / cells and the floats either side of them.
    x = np.concatenate([_neighbours(values), _neighbours(np.arange(cells + 1) / cells, 1), extra, [0.0, 1.0]])
    x = x[(x >= 0.0) & (x <= 1.0)]
    got = mc._ranker(values, cells)(x)
    assert np.array_equal(got, np.searchsorted(values, x, side="right"))


@given(
    cuts=st.lists(st.one_of(st.integers(-10**6, 10**6), st.integers(-40, 40)), min_size=1, max_size=40),
    cells=st.integers(1, 600),
    extra=st.lists(st.integers(-(2**62), 2**62), max_size=30),
)
@example(cuts=[0, 1, 2, 3, 7, 8], cells=2, extra=[])
@settings(max_examples=300)
def test_ranker_matches_searchsorted_on_ints(cuts, cells, extra):
    values = np.unique(np.array(cuts, dtype=np.int64))
    # Each cut and every cell boundary lo + j * 2**k next to one, for cells 1
    # to 2**22 wide, and 1 either side of them.
    lo = values[0]
    boundaries = [lo + ((((values - lo) >> k) + j) << k) for k in range(23) for j in (0, 1)]
    near = np.concatenate([values, *boundaries])
    x = np.concatenate([near - 1, near, near + 1, np.array(extra, dtype=np.int64)])
    got = mc._ranker(values, cells)(x)
    assert got.dtype == np.intp and np.array_equal(got, np.searchsorted(values, x, side="right"))


@given(
    weights=st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.1, 0.25, 1.0, 3.0]), min_size=1, max_size=32),
    draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
)
@example(weights=[0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0], draws=[0.0, 0.5])
@settings(max_examples=300)
def test_sampler_matches_binary_search(weights, draws):
    # Zero-probability outcomes repeat a CDF value: one rank covers them all.
    cdf = np.cumsum(weights)
    if cdf[-1] == 0:
        return
    cdf = cdf / cdf[-1]
    grid = np.arange(1 << 10) / (1 << 10)
    u = np.concatenate([draws, grid, _neighbours(cdf)])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = mc._sampler(cdf, offset=32)(u)
    assert got.dtype == np.uint8
    assert np.array_equal(got, categorical_oracle(cdf, u) + 32)


# g2's geometry in ps: 1447 bins of 100.03 ps over +-72368 ps and eleven 1 ns windows.
_G2_PERIOD = ApparatusConfig().period_ns * 1000.0
_G2_SPAN = 5.5 * _G2_PERIOD
_G2_OFFSETS = [0.0] + [sign * k * _G2_PERIOD for k in range(1, 6) for sign in (-1.0, 1.0)]


def _g2_edge_deltas() -> np.ndarray:
    """The whole-ps deltas on and 1 ps either side of every g2 histogram and
    window edge (on an edge when it is whole, else the two around it)."""
    nbins = 2 * int(_G2_SPAN / 100.0) + 1
    edges = np.histogram_bin_edges(np.empty(0), bins=nbins, range=(-_G2_SPAN, _G2_SPAN))
    edges = np.concatenate([edges, [off + sign * 500 for off in _G2_OFFSETS for sign in (-1, 1)]])
    near = [np.floor(edges) - 1, np.floor(edges), np.ceil(edges), np.ceil(edges) + 1]
    return np.unique(np.concatenate(near)).astype(np.int64)


@given(
    ta=st.lists(st.integers(0, 300_000), max_size=30).map(lambda v: np.sort(np.array(v, np.int64))),
    tb=st.lists(st.integers(0, 300_000), max_size=30).map(lambda v: np.sort(np.array(v, np.int64))),
    planted=st.lists(st.sampled_from(_g2_edge_deltas().tolist()), max_size=30),
    budget=st.sampled_from([1, 7, mc._PAIR_BUDGET]),
)
@settings(max_examples=200)
def test_coincidences_match_all_pairs_off_grid(ta, tb, planted, budget):
    # One event at 150 ns sees tb events at exactly the planted deltas.
    ta = np.sort(np.append(ta, 150_000))
    tb = np.sort(np.concatenate([tb, 150_000 + np.array(planted, dtype=np.int64)]))
    with mock.patch.object(mc, "_PAIR_BUDGET", budget):
        got = mc._coincidences(ta, tb, _G2_SPAN, _G2_OFFSETS, 500, 100.0)
        no_hist = mc._coincidences(ta, tb, _G2_SPAN, _G2_OFFSETS, 500)
    want = all_pairs_coincidences(ta, tb, _G2_SPAN, _G2_OFFSETS, 500, 100.0)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2] == want[2]
    assert no_hist == (None, None, want[2])


def test_coincidences_at_every_edge_neighbour():
    # Deltas on and 1 ps either side of every bin and window edge, including
    # the first bin's lower edge and the pair window's ends.
    ta = np.array([0])
    tb = _g2_edge_deltas()
    assert tb[0] < -_G2_SPAN and tb[-1] > _G2_SPAN
    for bin_ps in (100.0, 7.0, 0.5, None):
        got = mc._coincidences(ta, tb, _G2_SPAN, _G2_OFFSETS, 500, bin_ps)
        want = all_pairs_coincidences(ta, tb, _G2_SPAN, _G2_OFFSETS, 500, bin_ps or 100.0)
        if bin_ps is None:
            assert got[:2] == (None, None)
        else:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]


@pytest.mark.parametrize("bin_ps", [100.0, 250.0, 37.5, 1000.0])
def test_histogram_bins_are_bin_ps_wide(bin_ps):
    # An odd bin count about bin_ps wide, the central bin on zero delay.
    times = {"d1": np.array([10_000]), "d2": np.array([10_200])}
    g2 = g2_histogram(TimestampStream(dict(times), ApparatusConfig(topology="hbt_xx"), 0, 1.0), bin_ps=bin_ps)
    hom = ApparatusConfig(topology="hom")
    co, cross = (TimestampStream(dict(times), replace(hom, hom_copolarized=c), 0, 1.0) for c in (True, False))
    result = hom_histogram((co, cross), bin_ps=bin_ps)
    for centers in (g2.bin_centers_ps, result.copolarized.bin_centers_ps, result.crossed.bin_centers_ps):
        n = centers.size
        assert n % 2 == 1 and abs(centers[n // 2]) < 1e-9 * bin_ps
        widths = np.diff(centers)
        assert np.allclose(widths, widths[0]) and abs(widths[0] - bin_ps) <= bin_ps / n * (1 + 1e-9)


@given(
    keys=st.lists(st.integers(-10_000, 110_000), max_size=60).map(lambda v: np.array(v, np.int64)),
    table=st.lists(st.integers(0, 400).map(lambda k: 250 * k), max_size=60).map(lambda v: np.sort(np.array(v, np.int64))),
    block=st.sampled_from([1, 2, 3, mc._SEARCH_BLOCK]),
    ordered=st.booleans(),
)
@settings(max_examples=300)
def test_block_ranks_match_searchsorted(keys, table, block, ordered):
    # Unsorted keys, as the four-fold count's heralding times are, and table
    # values repeated on a grid the keys may hit.
    keys = np.concatenate([keys, table[::3]]) if table.size else keys
    if ordered:
        keys = np.sort(keys)
    with mock.patch.object(mc, "_SEARCH_BLOCK", block):
        got = mc._block_ranks(keys, table)
    assert got.dtype == np.intp and np.array_equal(got, np.searchsorted(table, keys))


@given(
    b1=_GRID_TIMES,
    b2=_GRID_TIMES,
    alice=_GRID_TIMES,
    bob=_GRID_TIMES,
    gate=st.sampled_from([250.0, 500.0, 999.0, 1000.0, 2000.0, 2001.0, math.inf]),
    budget=st.sampled_from([1, 2, 3, 64, mc._PAIR_BUDGET]),
)
# One BSM event with eight partners (6000 is on the gate's open edge) against
# a budget of three. Its first pair takes Alice's 1500 and Bob's 3500 on their
# windows' closed edges, its last pair 4250 and 6250 inside them; 4375 and
# 6375 sit on open edges. Four-folds: the first and last pair.
@example(
    b1=np.array([5000]),
    b2=4000 + 250 * np.arange(9),
    alice=np.array([1500, 4250, 4375]),
    bob=np.array([3500, 6250, 6375]),
    gate=2000.0,
    budget=3,
)
# A heralding time of 5000.5 ps: Alice's window is [2000.5, 4000.5) and
# Bob's [4000.5, 6000.5), so 4000 and 6000 make a four-fold, 2000 and 4000 not.
@example(b1=np.array([5000]), b2=np.array([5001]), alice=np.array([4000]), bob=np.array([6000]), gate=999.0, budget=1)
@example(b1=np.array([5000]), b2=np.array([5001]), alice=np.array([2000]), bob=np.array([4000]), gate=999.0, budget=1)
# A 999 ps gate takes deltas from -499 to 499 ps: -500 is out.
@example(b1=np.array([5000]), b2=np.array([4500]), alice=np.array([2750]), bob=np.array([4750]), gate=999.0, budget=1)
# An infinite gate pairs events as far apart as the last time.
@example(b1=np.array([0]), b2=np.array([3000]), alice=np.array([0]), bob=np.array([1500]), gate=math.inf, budget=1)
@settings(max_examples=200)
def test_fourfold_coincidences_match_loop_oracle(b1, b2, alice, bob, gate, budget):
    # On the 125 ps grid, moved by up to 2 ps, the heralding times and analyzer
    # windows fall on, and 1 ps either side of, each other's edges, and the
    # heralding times fall on whole and half ps.
    cfg = ApparatusConfig()
    stream = TimestampStream({"bsm1": b1, "bsm2": b2, "alice": alice, "bob": bob}, cfg, 0, 1.0)
    with mock.patch.object(mc, "_PAIR_BUDGET", budget):
        got = fourfold_coincidences(stream, gate)
    assert got == loop_fourfold(b1, b2, alice, bob, gate, 2000, 1000)


@pytest.mark.parametrize("budget", [None, 13])
def test_coincidence_analyses_match_all_pairs_oracle(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(mc, "_PAIR_BUDGET", budget)
    hbt = ApparatusConfig(topology="hbt_xx", background_ratio=0.0055, **FAST)
    stream = simulate(hbt, _periods(hbt, 20_000), seed=5)
    period = hbt.period_ns
    offsets = [0.0] + [sign * k * period * 1000.0 for k in range(1, 6) for sign in (-1.0, 1.0)]
    g2 = g2_histogram(stream)
    centers, hist, windows = all_pairs_coincidences(
        stream.channels["d1"], stream.channels["d2"], 5.5 * period * 1000.0, offsets, 500, 100.0
    )
    assert hist.sum() > 100_000  # thousands of chunks at the small budget
    assert np.array_equal(g2.bin_centers_ps, centers) and np.array_equal(g2.counts, hist)
    assert [g2.central_counts, *g2.side_counts] == windows
    assert g2.g2_zero == windows[0] / np.mean(windows[1:])

    base = ApparatusConfig(topology="hom", **FAST)
    co = simulate(replace(base, hom_copolarized=True), _periods(base, 100_000), seed=6)
    cross = simulate(replace(base, hom_copolarized=False), _periods(base, 100_000), seed=7)
    hom = hom_histogram((co, cross))
    mzi = base.mzi_delay_ns
    offsets = [k * mzi for k in (-2, -1, 0, 1, 2)]
    central = []
    for s, h in ((co, hom.copolarized), (cross, hom.crossed)):
        centers, hist, windows = all_pairs_coincidences(
            s.channels["d1"], s.channels["d2"], 2.5 * mzi * 1000.0, [1000.0 * o for o in offsets], 1000, 100.0
        )
        assert np.array_equal(h.bin_centers_ps, centers) and np.array_equal(h.counts, hist)
        assert h.cluster_counts == dict(zip(offsets, windows))
        central.append(windows[2])
    assert hom.visibility == 1.0 - central[0] / central[1]

    swap = ApparatusConfig(**FAST)
    stream = simulate(swap, _periods(swap, 100_000), seed=8)
    _, _, (want,) = all_pairs_coincidences(
        stream.channels["alice"], stream.channels["bob"], 3.0 * mzi * 1000.0, [mzi * 1000.0], 1000, 100.0
    )
    assert want > 0
    assert twofold_control_coincidences(stream) == want


def test_analyses_of_a_read_back_stream_equal_those_in_memory(tmp_path):
    # The file holds the very int64 ps times the analyses read in memory.
    hbt = ApparatusConfig(topology="hbt_xx", background_ratio=0.0055, **FAST)
    swap = ApparatusConfig(**FAST)
    base = ApparatusConfig(topology="hom", **FAST)
    streams = {
        "hbt": simulate(hbt, _periods(hbt, 300_000), seed=3),
        "swap": simulate(swap, _periods(swap, 100_000), seed=4),
        "short": simulate(swap, _periods(swap, 5_000), seed=4),  # an infinite gate pairs all BSM events
        "co": simulate(replace(base, hom_copolarized=True), _periods(base, 100_000), seed=6),
        "cross": simulate(replace(base, hom_copolarized=False), _periods(base, 100_000), seed=7),
    }
    back = {}
    for name, stream in streams.items():
        write_stream(stream, tmp_path / f"{name}.bin")
        back[name] = read_stream(tmp_path / f"{name}.bin")
        assert back[name].channels.keys() == stream.channels.keys()
        for channel, times in stream.channels.items():
            assert np.array_equal(back[name].channels[channel], times)
    for bin_ps in (100.0, 1.0):
        a, b = g2_histogram(streams["hbt"], bin_ps), g2_histogram(back["hbt"], bin_ps)
        assert np.array_equal(a.counts, b.counts) and a.side_counts == b.side_counts and a.g2_zero == b.g2_zero
    a, b = hom_histogram((streams["co"], streams["cross"])), hom_histogram((back["co"], back["cross"]))
    assert np.array_equal(a.copolarized.counts, b.copolarized.counts) and a.visibility == b.visibility
    for name, gate in (("swap", 2000.0), ("short", math.inf)):
        assert fourfold_coincidences(streams[name], gate) == fourfold_coincidences(back[name], gate) > 0
    assert twofold_control_coincidences(streams["swap"]) == twofold_control_coincidences(back["swap"]) > 0


def test_g2_memory_does_not_grow_with_pair_count():
    """Dense streams of 5.7M and 11.5M pairs stay under one fixed ceiling.

    Materialising every pair costs about 72 bytes a pair (400 MB here); the
    streamed analysis holds one budget of pairs plus a few arrays per event.
    """
    cfg = ApparatusConfig(topology="hbt_xx")
    # Ten 8-byte temporaries per budgeted pair, twice over, plus six 8-byte
    # arrays per event (searchsorted bounds and their sums) of the larger run.
    ceiling = 2 * 10 * 8 * mc._PAIR_BUDGET + 6 * 8 * 20_000
    pairs = []
    for n in (10_000, 20_000):
        ta = np.arange(n) * 250
        stream = TimestampStream({"d1": ta, "d2": ta + 100}, cfg, 0, 1.0)
        tracemalloc.start()
        try:
            result = g2_histogram(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling, (n, peak, ceiling)
        pairs.append(int(result.counts.sum()))
    assert pairs[0] >= 5_000_000 and pairs[1] >= 2 * pairs[0] - 10_000


def test_coincidences_memory_per_histogram_bin():
    # 1.45M bins of 0.1 ps over g2's +-72 ns on 2,000-event channels: the
    # centers, the integer cuts, their rank table and the counts, below the
    # 7.5 float64 per bin of the analysis before the rank kernel (10.1 with
    # float cuts).
    rng = np.random.default_rng(5)
    ta, tb = (np.sort(rng.integers(0, 10**8, 2000)) for _ in range(2))
    nbins = 2 * int(_G2_SPAN / 0.1) + 1
    tracemalloc.start()
    try:
        centers, hist, _ = mc._coincidences(ta, tb, _G2_SPAN, _G2_OFFSETS, 500, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert centers.size == hist.size == nbins > 1_440_000
    assert peak < 7.5 * 8 * nbins, peak / (8 * nbins)


def test_fourfold_memory_does_not_grow_with_pair_count():
    """Dense streams of about 1M and 2M BSM pairs stay under one fixed ceiling.

    Materialising every pair costs about 56 bytes a pair (56 and 113 MB
    here); the streamed count holds one budget of pairs plus a few arrays
    per event.
    """
    cfg = ApparatusConfig()
    # Twelve 8-byte temporaries per budgeted pair, plus six 8-byte arrays per
    # BSM1 event (searchsorted bounds and their sums) of the larger run.
    ceiling = 12 * 8 * mc._PAIR_BUDGET + 6 * 8 * 25_000
    counts = []
    for n in (12_500, 25_000):
        t = np.arange(n) * 250
        channels = {"bsm1": t, "bsm2": t + 100, "alice": t, "bob": t + 50}
        stream = TimestampStream(channels, cfg, 0, 1.0)
        tracemalloc.start()
        try:
            # A 20 ns gate pairs each BSM1 event with 80 BSM2 events.
            counts.append(fourfold_coincidences(stream, 20_000.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling, (n, peak, ceiling)
    assert counts[0] >= 990_000 and counts[1] >= 2 * counts[0] - 10_000


def test_simulate_tomography_run_shapes():
    cfg = ApparatusConfig(**FAST)
    settings = standard_settings(16)[:4]
    run = simulate_tomography_run(cfg, settings, periods_per_setting=50_000, seed=5,
                                  heralded=False)
    assert len(run.counts) == 4
    assert run.counts.sum() > 0
    heralded = simulate_tomography_run(cfg, settings, periods_per_setting=50_000, seed=5,
                                       heralded=True, gate_ps=2000.0)
    assert heralded.counts.sum() < run.counts.sum()


def test_dark_counts_fill_dead_apparatus():
    cfg = ApparatusConfig(
        efficiency=0.0, dark_rate_hz=5e6, dead_time_ns=0.0, bsm=BsmSettings(jitter_ps=0.0)
    )
    duration = 2e-3
    stream = simulate(cfg, duration, seed=6)
    for name, times in stream.channels.items():
        expected = cfg.dark_rate_hz * duration
        assert abs(times.size - expected) < 5 * math.sqrt(expected)
        # homogeneous in time: mean near the middle of the span
        assert abs(float(times.mean()) - duration * 1e12 / 2) < duration * 1e12 * 0.05


def _assert_stream_matches_oracle(monkeypatch, cfg: ApparatusConfig, **oracles) -> None:
    """simulate() equals a run with the given mc functions swapped for their oracles."""
    # Several chunks, so the draws of later chunks and the pool are covered too.
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", 8192)
    stream = simulate(cfg, _periods(cfg, 30_000), seed=9)
    for name, oracle_fn in oracles.items():
        monkeypatch.setattr(mc, name, oracle_fn)
    oracle = simulate(cfg, _periods(cfg, 30_000), seed=9)
    for name in oracle.channels:
        assert stream.channels[name].size > 0
        assert np.array_equal(stream.channels[name], oracle.channels[name])


def _noise(noisy: bool) -> dict:
    return dict(efficiency=0.6, background_ratio=0.01, dark_rate_hz=1e5, dead_time_ns=5.0) if noisy else {}


@pytest.mark.parametrize("topology", ["hom", "hbt_xx", "hbt_x"])
@pytest.mark.parametrize("copolarized", [True, False])
@pytest.mark.parametrize("offset_ps", [0.0, -350.0, 120.0])
@pytest.mark.parametrize("noisy", [False, True])
def test_chunk_generators_match_full_array_oracle(monkeypatch, topology, copolarized, offset_ps, noisy):
    cfg = ApparatusConfig(
        topology=topology, hom_copolarized=copolarized, bsm_delay_offset_ps=offset_ps,
        bsm=BsmSettings(jitter_ps=30.0 if noisy else 0.0), **_noise(noisy),
    )  # fmt: skip
    _assert_stream_matches_oracle(
        monkeypatch, cfg, _chunk_hom=full_array_chunk_hom, _chunk_hbt=full_array_chunk_hbt
    )


@pytest.mark.parametrize("convention", list(BsmConvention))
@pytest.mark.parametrize("analyzers", [("H", "V"), ("D", "A"), ("R", "L"), (None, None)])
@pytest.mark.parametrize("offset_ps", [0.0, -350.0, 120.0])
@pytest.mark.parametrize("noisy", [False, True])
def test_swap_generator_matches_full_array_oracle(monkeypatch, convention, analyzers, offset_ps, noisy):
    cfg = ApparatusConfig(
        alice_setting=analyzers[0], bob_setting=analyzers[1], bsm_delay_offset_ps=offset_ps,
        bsm=BsmSettings(convention=convention, jitter_ps=30.0 if noisy else 0.0), **_noise(noisy),
    )  # fmt: skip
    _assert_stream_matches_oracle(
        monkeypatch, cfg, _swap_tables=loop_swap_tables, _chunk_swap=full_array_chunk_swap
    )


@pytest.mark.parametrize("convention", list(BsmConvention))
def test_swap_tables_match_loop_oracle(convention):
    for setting in standard_settings(36) + [None]:
        analyzers = (setting.projector_a, setting.projector_b) if setting else (None, None)
        cfg = ApparatusConfig(
            alice_setting=analyzers[0], bob_setting=analyzers[1], bsm=BsmSettings(convention=convention)
        )
        tables, oracle = mc._swap_tables(cfg), loop_swap_tables(cfg)
        for ci in range(4):
            assert np.array_equal(tables["cdfs"][ci], oracle["ind_cdf"][ci])
            assert np.array_equal(tables["cdfs"][4 + ci], oracle["dist_cdf"][ci])


@pytest.mark.parametrize("topology, float_arrays", [("hom", 7), ("hbt_xx", 5), ("hbt_x", 5), ("swap", 12)])
def test_chunk_generators_hold_few_period_arrays(topology, float_arrays):
    # The full-array versions peak at 103 B (hom), 60 B (hbt) and 180 B (swap) per period.
    n = 1 << 17
    cfg = ApparatusConfig(topology=topology, hom_copolarized=False, **FAST)
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        if topology == "hom":
            mc._chunk_hom(cfg, mc._hom_tables(cfg), 0, n, rng)
        elif topology == "swap":
            mc._chunk_swap(cfg, mc._swap_tables(cfg), 0, n, rng)
        else:
            mc._chunk_hbt(cfg, 0, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < float_arrays * 8 * n, peak / n


@given(
    grid_ps=st.sampled_from([100, 250]),
    dead_ps=st.sampled_from([300, 1100, math.ceil(ApparatusConfig().period_ns * 1000.0), 20_000]),
    start=st.integers(0, 10**7),
    steps=st.lists(st.integers(0, 250), max_size=80),
)
# An event exactly the dead time after the last kept one is kept.
@example(grid_ps=100, dead_ps=300, start=0, steps=[7, 3])
@example(grid_ps=100, dead_ps=1100, start=0, steps=[7, 11])
@example(grid_ps=250, dead_ps=300, start=0, steps=[])
@example(grid_ps=250, dead_ps=20_000, start=3, steps=[0])
@example(grid_ps=250, dead_ps=20_000, start=0, steps=[1] * 400)  # one cluster 100 ns long
def test_dead_time_filter_matches_serial_loop(grid_ps, dead_ps, start, steps):
    times = (start + np.cumsum(steps, dtype=np.int64)) * grid_ps
    assert np.array_equal(mc._dead_time_filter(times, dead_ps), serial_dead_time_filter(times, dead_ps))


def _long_clusters(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """Lengths of the clusters of three or more events (gaps below dead_ps)."""
    starts = np.flatnonzero(np.diff(times, prepend=times[:1] - dead_ps) >= dead_ps)
    lengths = np.diff(starts, append=times.size)
    return lengths[lengths > 2]


@given(
    grid_ps=st.sampled_from([100, 250]),
    dead_ps=st.sampled_from([300, 1100, math.ceil(ApparatusConfig().period_ns * 1000.0), 20_000]),
    start=st.integers(0, 10**7),
    clusters=st.lists(
        st.binary(min_size=2, max_size=10), min_size=mc._SERIAL_CLUSTERS + 1, max_size=2 * mc._SERIAL_CLUSTERS
    ),
    tail=st.binary(min_size=100, max_size=500),
)  # fmt: skip
# Many 3-event clusters whose third event lands exactly on the dead time
# after the first: 3 x 100 = 300, 11 x 100 = 1100 and 80 x 250 = 20000 ps.
@example(grid_ps=100, dead_ps=300, start=0, clusters=[bytes([1, 2])] * 200, tail=bytes([1] * 100))
@example(grid_ps=100, dead_ps=1100, start=0, clusters=[bytes([4, 7])] * 200, tail=bytes([3] * 100))
@example(grid_ps=250, dead_ps=20_000, start=0, clusters=[bytes([40, 40])] * 200, tail=bytes([40] * 100))
def test_dead_time_filter_rounds_and_serial_finish_match_serial_loop(grid_ps, dead_ps, start, clusters, tail):
    # Steps below `gap` grid units stay in a cluster, one of `gap` units
    # starts the next; the `tail` cluster is longer than all the others, so one
    # call runs the vectorised rounds and then finishes it serially.
    gap = -(-dead_ps // grid_ps)
    steps = [k for cluster in [*clusters, tail] for k in [gap] + [s % gap for s in cluster]]
    times = (start + np.cumsum(steps, dtype=np.int64)) * grid_ps
    lengths = _long_clusters(times, dead_ps)
    assert lengths.size > mc._SERIAL_CLUSTERS and lengths[-1] > np.sort(lengths)[-2]
    assert np.array_equal(mc._dead_time_filter(times, dead_ps), serial_dead_time_filter(times, dead_ps))


def test_dead_time_filter_memory():
    # 1M events at rate x dead time 0.6: the filter peaks at about 1.4 int64
    # per event, the per-event loop at 4.66 (its tolist() plus the kept list).
    n, dead_ps = 1_000_000, 20_000
    times = np.sort(np.random.default_rng(7).integers(0, int(n * dead_ps / 0.6), n))
    tracemalloc.start()
    try:
        kept = mc._dead_time_filter(times, dead_ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.5 * n < kept.size < 0.8 * n
    assert peak <= 3 * 8 * n, peak / (8 * n)


@pytest.fixture
def recorded_pools(monkeypatch) -> list[int]:
    """8192-period chunks on four faked cores; records each pool's worker count."""
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", 8192)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    pools = []

    class RecordingPool(mc.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
    return pools


def test_worker_cap_does_not_change_results(monkeypatch, recorded_pools):
    # 30k periods in 8192-period blocks: four chunks, so the pool really runs.
    cfg = ApparatusConfig(**FAST)
    monkeypatch.setenv("SWAPSIM_THREADS", "1")
    serial = simulate(cfg, _periods(cfg, 30_000), seed=8)
    assert recorded_pools == []
    monkeypatch.setenv("SWAPSIM_THREADS", "2")
    threaded = simulate(cfg, _periods(cfg, 30_000), seed=8)
    assert recorded_pools == [2]
    for name in serial.channels:
        assert serial.channels[name].size > 0
        assert np.array_equal(serial.channels[name], threaded.channels[name])


def test_worker_cap_does_not_change_tomography_counts(monkeypatch, recorded_pools):
    # Four chunks per setting, and the default 20 ns dead time over the merged stream.
    cfg = ApparatusConfig(dead_time_ns=20.0)
    settings = standard_settings(16)[1:5]  # HV, HD, HR, VH: all herald at 30k periods
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("SWAPSIM_THREADS", threads)
        runs[threads] = simulate_tomography_run(cfg, settings, 30_000, seed=3, heralded=True, gate_ps=2000.0)
    assert recorded_pools == [2] * len(settings)
    assert np.all(runs["1"].counts > 0)
    assert np.array_equal(runs["1"].counts, runs["2"].counts)


@pytest.mark.parametrize(
    "topology, analyzers, noisy",
    [("swap", ("H", "V"), False), ("swap", (None, None), False), ("hbt_xx", (None, None), False),
     ("swap", ("D", "A"), True), ("hbt_xx", (None, None), True)],
)  # fmt: skip
def test_dead_time_matches_serial_filter_of_live_stream(monkeypatch, recorded_pools, topology, analyzers, noisy):
    # Dead time draws no random numbers, so a 20 ns run equals the serial
    # filter of the same run at 0 ns; four chunks on two workers.
    noise = dict(background_ratio=0.01, dark_rate_hz=1e5) if noisy else {}
    cfg = ApparatusConfig(
        topology=topology, alice_setting=analyzers[0], bob_setting=analyzers[1], dead_time_ns=20.0, **noise
    )
    monkeypatch.setenv("SWAPSIM_THREADS", "2")
    live = simulate(cfg, _periods(cfg, 30_000), seed=12)
    raw = simulate(replace(cfg, dead_time_ns=0.0), _periods(cfg, 30_000), seed=12)
    assert recorded_pools == [2, 2]
    for name, times in raw.channels.items():
        assert _long_clusters(times, 20_000).size > mc._SERIAL_CLUSTERS, name
        assert np.array_equal(live.channels[name], serial_dead_time_filter(times, 20_000))


@pytest.mark.parametrize("cap", ["two", "0", "-3", ""])
def test_malformed_thread_cap_is_rejected(monkeypatch, tmp_path, capsys, cap):
    monkeypatch.setenv("SWAPSIM_THREADS", cap)
    with pytest.raises(McError, match=f"SWAPSIM_THREADS={cap!r}"):
        mc.worker_count()
    assert cli.main(["mc-run", "--duration", "1e-5", "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "SWAPSIM_THREADS" in capsys.readouterr().err


def test_whole_period_durations_give_their_period_count(monkeypatch):
    # P / rep_rate gives P periods. For 9,666 of the P below 200,000, P = 47
    # among them, the rounded product (P / rep_rate) * rep_rate falls below P.
    rate = ApparatusConfig().rep_rate_hz
    assert 47 / rate * rate < 47
    for p in range(1, 200_000):
        assert mc._period_count(p / rate, rate) == p
        assert mc._period_count((p + 0.5) / rate, rate) == p
        assert mc._period_count(math.nextafter(p / rate, 0.0), rate) == p - 1
    chunks, chunk_hbt = [], mc._chunk_hbt

    def recording_chunk_hbt(config, start, n, rng):
        chunks.append(n)
        return chunk_hbt(config, start, n, rng)

    monkeypatch.setattr(mc, "_chunk_hbt", recording_chunk_hbt)
    simulate(ApparatusConfig(topology="hbt_xx", **FAST), 47 / rate, seed=1)
    assert chunks == [47]


def test_per_channel_efficiency_mapping():
    cfg = ApparatusConfig(
        efficiency={"alice": 0.5, "bob": 0.0, "bsm1": 0.5, "bsm2": 0.5},
        dead_time_ns=0.0,
    )
    stream = simulate(cfg, _periods(cfg, 20_000), seed=4)
    assert stream.counts()["bob"] == 0
    assert stream.counts()["alice"] > 0
    back = sorted(to_dict(ApparatusConfig(**FAST)))  # dict form stays serializable
    assert "efficiency" in back
    assert from_dict(ApparatusConfig, to_dict(cfg)) == cfg


def test_efficiency_mapping_must_name_every_detector_of_the_run():
    # A detector left out would record nothing; an explicit 0.0 is allowed.
    with pytest.raises(McError, match="no value for the hom detectors \\['d2'\\]"):
        simulate(ApparatusConfig(topology="hom", efficiency={"d1": 0.8}), 1e-5, seed=1)
    with pytest.raises(McError, match="no value for the swap detectors \\['bsm2'\\]"):
        simulate(ApparatusConfig(efficiency={"alice": 0.8, "bob": 0.8, "bsm1": 0.8}), 1e-5, seed=1)
    stream = simulate(ApparatusConfig(topology="hom", efficiency={"d1": 0.8, "d2": 0.0}), 1e-4, seed=1)
    assert stream.counts()["d1"] > 0 and stream.counts()["d2"] == 0


def test_efficiency_mapping_rejects_unknown_detectors():
    # A misspelt channel would silently record nothing.
    with pytest.raises(McError, match="unknown detectors \\['bms2'\\]"):
        ApparatusConfig(efficiency={"alice": 0.8, "bob": 0.8, "bsm1": 0.8, "bms2": 0.8})
    for efficiency in ({"alice": 0.8, "bob": 0.8, "bsm1": 0.8, "bsm2": 0.8}, {"d1": 0.5, "d2": 0.6}):
        assert ApparatusConfig(efficiency=efficiency).efficiency == efficiency


def test_fourfold_requires_swap_topology():
    cfg = ApparatusConfig(topology="hbt_xx", **FAST)
    stream = simulate(cfg, _periods(cfg, 1000), seed=1)
    with pytest.raises(McError):
        fourfold_coincidences(stream, 100.0)
    with pytest.raises(McError):
        twofold_control_coincidences(stream)
