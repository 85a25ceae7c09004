import functools
import hashlib
import json
import math
import re
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CutStream,
    Stream,
    all_pairs_coincidences,
    categorical_oracle,
    full_array_chunk_hbt,
    full_array_chunk_hom,
    full_array_chunk_swap,
    joined_segments,
    loop_fourfold,
    loop_swap_tables,
    serial_dead_time_filter,
    simulate,
    whole_channel_pair_chunks,
    whole_stream_merge,
    whole_stream_write,
)

from swapsim import cli, mc
from swapsim.config import TUNED_G2_BACKGROUND_RATIO
from swapsim.interference import BsmConvention, BsmSettings, gate_response
from swapsim.mc import (
    ApparatusConfig,
    McError,
    Run,
    fourfold_coincidences,
    g2_histogram,
    hom_histogram,
    read_stream,
    simulate_runs,
    simulate_tomography_run,
    twofold_control_coincidences,
    write_stream,
)
from swapsim.params import atomic_file, config_hash, from_dict, to_dict
from swapsim.source import NoiseKind, SourceParams
from swapsim.swap import predict
from swapsim.tomography import MeasurementSetting, born_probabilities, standard_settings

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


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_run_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # -1 and 1.5 once constructed and failed only when the segments were read.
    with pytest.raises(McError, match=f"seed {seed!r} is not a non-negative integer"):
        Run(ApparatusConfig(**FAST), seed, 1e-6)


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
    assert config_hash(back.config) == config_hash(stream.config)
    for _, channels in back.segments():
        assert all(times.dtype == np.int64 for times in channels.values())
    got = joined_segments(back)
    assert got.keys() == stream.channels.keys()
    for name in stream.channels:
        assert np.array_equal(got[name], stream.channels[name])
    # A sidecar written before the strict-JSON writer: sorted keys, and the
    # default infinite gate as a bare Infinity.
    sidecar = json.loads(path.with_suffix(".json").read_text())
    assert sidecar["config"]["bsm"]["gate_ps"] == "inf"
    old = json.dumps({**sidecar, "config": to_dict(stream.config)}, indent=2, sort_keys=True)
    assert '"gate_ps": Infinity' in old
    path.with_suffix(".json").write_text(old)
    back = read_stream(path)
    assert (back.config, back.seed, back.duration_s) == (stream.config, stream.seed, stream.duration_s)


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

    # A channel id the sidecar does not name would be dropped; the records
    # are checked as they are read.
    renumbered = {name: i + 1 for name, i in sidecar["channels"].items()}
    sidecar_path.write_text(json.dumps({**sidecar, "channels": renumbered}))
    with pytest.raises(McError, match=rf"^{re.escape(str(path))}: channel ids \[0\] are not named"):
        joined_segments(read_stream(path))

    sidecar_path.write_text(json.dumps({**sidecar, "records": sidecar["records"] + 1}))
    with pytest.raises(McError, match=f"{sidecar['records']} records, the sidecar says"):
        read_stream(path)

    # Each of these is an McError naming the sidecar, not a crash or a silent load.
    ids = sidecar["channels"]  # alice, bob, bsm1, bsm2 -> 0-3
    for text, message in (
        ("[1, 2]", "JSON list, not an object"),
        ("{not json", "Expecting property name"),
        (json.dumps({**sidecar, "channels": list(ids)}), "must map names to integer ids"),
        (json.dumps({**sidecar, "channels": {**ids, "bob": 0, "extra": 1}}), "are not distinct"),
        (json.dumps({**sidecar, "channels": {**ids, "extra": 256}}), "integer ids in 0-255"),
        (json.dumps({**sidecar, "channels": {**ids, "bob": 1.0}}), "integer ids in 0-255"),
        (json.dumps({**sidecar, "seed": "twelve"}), "seed 'twelve' is not a non-negative integer"),
        (json.dumps({**sidecar, "seed": 12.5}), "seed 12.5 is not a non-negative integer"),
        (json.dumps({**sidecar, "seed": True}), "seed True is not a non-negative integer"),
        (json.dumps({**sidecar, "duration_s": "long"}), "duration_s 'long' is not a positive finite number"),
        # A run's own duration rule: a whole period, and an end before 2**63 ps.
        (json.dumps({**sidecar, "duration_s": 1e-12}), "holds no whole period"),
        (json.dumps({**sidecar, "duration_s": 1e8}), re.escape("ends past 2**63 ps")),
        (json.dumps({**sidecar, "records": str(sidecar["records"])}), "records '.*' is not a non-negative integer"),
        (json.dumps({**sidecar, "records": float(sidecar["records"])}), "records .* is not a non-negative integer"),
        # Names that are not the topology's detectors: one renamed, one extra with no events.
        (json.dumps({**sidecar, "channels": {("d1" if k == "bsm2" else k): i for k, i in ids.items()}}),
         re.escape("channels ['alice', 'bob', 'bsm1', 'd1'] are not the swap detectors"
                   " ['alice', 'bob', 'bsm1', 'bsm2']")),
        (json.dumps({**sidecar, "channels": {**ids, "extra": 4}}), "are not the swap detectors"),
    ):
        sidecar_path.write_text(text)
        with pytest.raises(McError, match=rf"^{re.escape(str(sidecar_path))}: .*{message}"):
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
    assert sum(times.size for times in joined_segments(read_stream(path)).values()) == sidecar["records"]


@pytest.mark.parametrize("fault, bad", [("swapped", 41), ("first past 2**63", 0), ("last past 2**63", 79)])
def test_read_stream_rejects_records_out_of_time_order(tmp_path, fault, bad):
    # Each an McError naming the file as its segments are read: a swapped
    # pair of records, and a u64 time of 2**63 ps or more (a negative int64,
    # below 0 as the first record or below the one before it).
    t = np.arange(0, 40_000, 1000)
    path = tmp_path / "run.bin"
    write_stream(Stream({"d1": t, "d2": t + 500}, ApparatusConfig(topology="hbt_xx")), path)
    records = np.fromfile(path, dtype=mc.RECORD_DTYPE)
    if fault == "swapped":
        records[[40, 41]] = records[[41, 40]]
    else:
        records["time_ps"][bad] = 2**63
    records.tofile(path)
    with pytest.raises(McError, match=rf"^{re.escape(str(path))}: record {bad} is out of time order"):
        joined_segments(read_stream(path))


@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"alice_setting": None, "bob_setting": None},
        {"alice_setting": "D", "bob_setting": None},
        {"topology": "hbt_x"},
        {"topology": "hbt_xx"},
        {"topology": "hom"},
        {"topology": "hom", "hom_copolarized": False},
    ],
)
def test_signal_flux_table_matches_the_generators(changes):
    # The table scales every run's background. With ideal detectors and no
    # background, dark counts or dead time, each channel detects its tabulated
    # signal photons per excitation pulse, two pulses per period.
    cfg = ApparatusConfig(efficiency=1.0, background_ratio=0.0, dark_rate_hz=0.0, dead_time_ns=0.0, **changes)
    n = 100_000
    counts = simulate(cfg, _periods(cfg, n), seed=8).counts()
    flux = cfg.signal_flux_per_pulse()
    assert tuple(flux) == tuple(counts) == cfg.channels()
    for name, per_pulse in flux.items():
        mean = per_pulse * 2 * n
        assert abs(counts[name] - mean) < 5 * math.sqrt(mean), (name, counts[name], mean)


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
    co_like = replace(cross2, config=replace(cross2.config, hom_copolarized=True))
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


def _copolarized_shares(cfg: ApparatusConfig, gate_ps: float, delays) -> np.ndarray:
    """Predicted D/D share of each delay's D/D plus D/A four-folds."""
    curve = predict(cfg.source, cfg.bsm, [gate_ps] * len(delays), delays)
    settings = [MeasurementSetting("D", b) for b in ("D", "A")]
    probs = np.array([born_probabilities(result.rho_ab, settings) for result in curve])
    return probs[:, 0] / probs.sum(axis=1)


def test_fourfold_scan_matches_the_delay_prediction():
    base = ApparatusConfig(**FAST)
    delays = [-600.0, -400.0, -200.0, 0.0, 200.0, 400.0, 600.0]
    co, cross = {}, {}
    for i, d in enumerate(delays):
        for j, (a, b) in enumerate((("D", "D"), ("D", "A"))):
            cfg = replace(base, bsm_delay_offset_ps=d, alice_setting=a, bob_setting=b)
            stream = simulate(cfg, _periods(cfg, 400_000), seed=900 + 10 * i + j)
            (co, cross)[j][d] = fourfold_coincidences(stream, 2000.0)
    assert co[0.0] > 1.8 * cross[0.0]
    # zero-delay contrast consistent with the ungated heralded coherence:
    # P(co)/P(cross) = (1+u)/(1-u) with u about 0.424
    ratio = co[0.0] / max(cross[0.0], 1)
    assert 1.9 < ratio < 3.2
    assert abs(co[600.0] - cross[600.0]) < 0.35 * max(co[0.0] - cross[0.0], 1)
    n_co = np.array([co[d] for d in delays], dtype=float)
    total = n_co + [cross[d] for d in delays]

    def pearson_chi2(share):
        return float(np.sum((n_co - total * share) ** 2 / (total * share * (1.0 - share))))

    # 24.3 is chi2 with 7 degrees of freedom at p = 0.001. The same counts
    # against the zero-offset prediction fail it, so the offset response is
    # what passes.
    assert pearson_chi2(_copolarized_shares(base, 2000.0, delays)) <= 24.3
    assert pearson_chi2(_copolarized_shares(base, 2000.0, [0.0] * len(delays))) > 24.3


@pytest.mark.parametrize("offset_ps", [0.0, 50.0, -50.0, -100.0, 200.0, 400.0])
def test_interference_sampling_matches_the_offset_gate_response(offset_ps):
    # The Monte Carlo's interference draw and a jittered gate on its detection
    # times, against gate_response's I and rate factor at that BSM delay offset.
    bsm, off = BsmSettings(), offset_ps * 1e-3
    gates = np.array([47.0, 200.0, 2000.0])
    rng = np.random.default_rng(4100 + int(offset_ps))
    draws, accepted, interfering = 0, np.zeros(3), np.zeros(3)
    for _ in range(4):
        n = 1 << 20
        e1, e2 = rng.exponential(bsm.t1_xx_ns, (2, n))
        hit = mc._interferes(bsm, e1, e2, off, rng.random(n))
        diff = np.abs(e2 - e1 - off + rng.normal(0.0, bsm.diff_jitter_sigma_ns, n))
        inside = diff[:, None] < gates * 1e-3 / 2.0
        draws += n
        accepted += inside.sum(axis=0)
        interfering += (inside & hit[:, None]).sum(axis=0)
    i_eff, rate = gate_response(bsm, gates, offset_ps)
    z_rate = (accepted / draws - rate) / np.sqrt(rate * (1.0 - rate) / draws)
    z_i = (interfering / accepted - i_eff) / np.sqrt(i_eff * (1.0 - i_eff) / accepted)
    assert np.all(np.abs(z_rate) < 4.0) and np.all(np.abs(z_i) < 4.0), (z_rate, z_i)


def test_gate_sweep_matches_quadrature_model():
    # event-level gating reproduces the analytic indistinguishability curve
    base = ApparatusConfig(**FAST)
    counts = {}
    for j, (a, b) in enumerate((("D", "D"), ("D", "A"))):
        cfg = replace(base, alice_setting=a, bob_setting=b)
        stream = simulate(cfg, _periods(cfg, 4_000_000), seed=700 + j)
        counts[(a, b)] = {g: fourfold_coincidences(stream, g) for g in (2000.0, 200.0, 47.0)}
    bsm = base.bsm
    c1c2 = (2 * 0.9369 - 1) * (2 * 0.9267 - 1)
    prev_total = math.inf
    for gate in (2000.0, 200.0, 47.0):
        dd, da = counts[("D", "D")][gate], counts[("D", "A")][gate]
        total = dd + da
        assert total < prev_total  # tighter gates cost rate
        prev_total = total
        u_mc = (dd - da) / total
        u_model = gate_response(bsm, [gate])[0][0] * c1c2
        assert abs(u_mc - u_model) < 4.0 / math.sqrt(total)


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


# The partner search runs on blocks of _PAIR_BUDGET ta events, so the small
# budgets cut both the pairs and the up to 40 events into several blocks.
@given(ta=_GRID_TIMES, tb=_GRID_TIMES, budget=st.sampled_from([1, 2, 3, 5, 64, mc._PAIR_BUDGET]))
@settings(max_examples=200)
def test_streamed_coincidences_match_all_pairs(ta, tb, budget):
    with mock.patch.object(mc, "_PAIR_BUDGET", budget):
        centers, hist, windows = mc._coincidences([(ta, tb)], _SPAN, _OFFSETS, 1000, 250.0)
        no_hist = mc._coincidences([(ta, tb)], _SPAN, _OFFSETS, 1000)
    want_centers, want_hist, want_windows = all_pairs_coincidences(ta, tb, _SPAN, _OFFSETS, 1000, 250.0)
    assert np.array_equal(centers, want_centers) and np.allclose(np.diff(centers), 250.0)
    assert np.array_equal(hist, want_hist) and hist.dtype == np.int64
    assert windows == want_windows
    assert no_hist == (None, None, want_windows)


def test_streamed_coincidences_edges_and_empty_channels():
    # Pairs span [-span, span): -5000 is a pair, +5000 is not; a delta on a
    # shared window edge counts in both windows.
    ta, tb = np.array([0]), np.array([-5000, -3000, -1000, 1000, 3000, 5000])
    _, hist, windows = mc._coincidences([(ta, tb)], 5000.0, _OFFSETS, 1000, 250.0)
    assert windows == [2, 2, 2, 2, 1]
    assert hist.sum() == 5
    # The last bin takes every delta up to the pair window's end.
    _, hist, _ = mc._coincidences([(ta, np.array([4999, 5000]))], 5000.0, [0.0], 500, 100.0)
    assert hist[-1] == 1 and hist.sum() == 1
    empty = np.empty(0, dtype=np.int64)
    for a, b in ((ta, empty), (empty, tb)):
        _, hist, windows = mc._coincidences([(a, b)], 5000.0, _OFFSETS, 1000, 250.0)
        assert hist.shape == (41,) and hist.sum() == 0 and windows == [0] * 5
    cfg = ApparatusConfig()
    stream = Stream({"alice": empty, "bob": tb + 10_000}, cfg, 0, 1.0)
    assert twofold_control_coincidences(stream) == 0


def test_one_event_with_more_partners_than_the_budget():
    ta = np.array([0, 500])
    tb = np.linspace(-4000, 4000, 3 * mc._PAIR_BUDGET + 7).astype(np.int64)
    got = mc._coincidences([(ta, tb)], 5000.0, _OFFSETS, 1000, 250.0)
    want = all_pairs_coincidences(ta, tb, 5000.0, _OFFSETS, 1000, 250.0)
    assert got[1].sum() == 2 * tb.size
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2] == want[2]


# Generator.random returns j / 2**53 for integers j in [0, 2**53): the
# categorical draw is exact on that grid only.
_GRID = 2**53


def _grid_neighbours(values) -> np.ndarray:
    """u = 0 and the grid points j - 1, j and j + 1 next to each value's
    least grid point j / 2**53 at or above it, and to every cell boundary of
    2**m-wide cells next to that point, in [0, 1)."""
    j = np.ceil(np.asarray(values, dtype=float) * _GRID).astype(np.int64)
    near = np.unique(np.concatenate([j, *(((j >> m) + i) << m for m in range(54) for i in (0, 1))]))
    j = np.concatenate([[0], near - 1, near, near + 1])
    return j[(j >= 0) & (j < _GRID)] / _GRID


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_uniform_draws_lie_on_the_categorical_grid(seed):
    scaled = np.random.default_rng(seed).random(100_000) * _GRID
    assert np.array_equal(scaled, np.floor(scaled)) and scaled.max() < _GRID


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


_DRAWS = st.lists(st.integers(0, _GRID - 1), max_size=50)


@given(
    weights=st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.1, 0.25, 1.0, 3.0]), min_size=1, max_size=32),
    draws=_DRAWS,
)
@example(weights=[0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0], draws=[0, 1 << 52])
@example(weights=[0.0, 1.0, 0.0], draws=[0, _GRID - 1])  # no cut inside (0, 1)
@settings(max_examples=300)
def test_sampler_matches_binary_search(weights, draws):
    # Zero-probability outcomes repeat a CDF value: one rank covers them all.
    cdf = np.cumsum(weights)
    if cdf[-1] == 0:
        return
    cdf = cdf / cdf[-1]
    grid = np.arange(1 << 10) / (1 << 10)
    u = np.concatenate([np.array(draws, dtype=float) / _GRID, grid, _grid_neighbours(cdf)])
    got = mc._categorical([cdf], [np.arange(cdf.size) + 32])(u)
    assert got.dtype == np.uint8
    assert np.array_equal(got, categorical_oracle(cdf, u) + 32)


_WEIGHTS = st.lists(st.sampled_from([0.0, 0.0, 5e-324, 1e-300, 1e-12, 0.1, 0.25, 1.0, 3.0]), min_size=1, max_size=32)


@given(
    weights=st.lists(_WEIGHTS.filter(lambda w: sum(w) > 0), min_size=1, max_size=8),
    draws=_DRAWS,
    order_seed=st.integers(0, 2**32 - 1),
)
@example(weights=[[0.0, 1.0, 0.0], [1.0], [0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0]], draws=[1 << 52], order_seed=0)
@example(weights=[[1.0], [0.0, 1.0, 0.0], [3.0, 5e-324]], draws=[], order_seed=1)  # no cut inside (0, 1)
@settings(max_examples=200)
def test_categorical_draw_matches_searchsorted_per_group(weights, draws, order_seed):
    # CDFs with zero-weight outcomes (repeated values, also at 0 and at 1),
    # each drawn at the grid points next to every CDF value and cell
    # boundary, for every group, in a random key order.
    cdfs = [np.cumsum(w) for w in weights]
    cdfs = [cdf / cdf[-1] for cdf in cdfs]
    u = np.concatenate([np.array(draws, dtype=float) / _GRID, _grid_neighbours(np.concatenate(cdfs))])
    key = np.repeat(np.arange(len(cdfs), dtype=np.uint8), u.size)
    u = np.tile(u, len(cdfs))
    order = np.random.default_rng(order_seed).permutation(u.size)
    u, key = u[order], key[order]
    got = mc._categorical(cdfs, [np.arange(cdf.size) + 32 * g for g, cdf in enumerate(cdfs)])(u, key)
    want = np.empty(u.size, dtype=np.intp)
    for g, cdf in enumerate(cdfs):
        sel = key == g
        want[sel] = np.searchsorted(cdf, u[sel], side="right").clip(0, cdf.size - 1) + 32 * g
    assert got.dtype == np.uint8 and np.array_equal(got, want)


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
        got = mc._coincidences([(ta, tb)], _G2_SPAN, _G2_OFFSETS, 500, 100.0)
        no_hist = mc._coincidences([(ta, tb)], _G2_SPAN, _G2_OFFSETS, 500)
    want = all_pairs_coincidences(ta, tb, _G2_SPAN, _G2_OFFSETS, 500, 100.0)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2] == want[2]
    assert no_hist == (None, None, want[2])


def test_coincidences_at_every_edge_neighbour():
    # Deltas on and 1 ps either side of every bin and window edge, including
    # the first bin's lower edge and the pair window's ends.
    ta = np.array([0])
    tb = _g2_edge_deltas()
    assert tb[0] < -_G2_SPAN and tb[-1] > _G2_SPAN
    for bin_ps in (100.0, 7.0, 1.0, None):
        got = mc._coincidences([(ta, tb)], _G2_SPAN, _G2_OFFSETS, 500, bin_ps)
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
    g2 = g2_histogram(Stream(dict(times), ApparatusConfig(topology="hbt_xx"), 0, 1.0), bin_ps=bin_ps)
    hom = ApparatusConfig(topology="hom")
    co, cross = (Stream(dict(times), replace(hom, hom_copolarized=c), 0, 1.0) for c in (True, False))
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


_SORTED_TIMES = st.lists(st.integers(0, 20_000), max_size=60).map(lambda v: np.sort(np.array(v, np.int64)))


@given(ta=_SORTED_TIMES, tb=_SORTED_TIMES, lo=st.integers(-3000, 3000), width=st.integers(0, 6000))
# A window that holds two tb events where windows hold less than one on average.
@example(ta=np.array([0]), tb=np.array([0, 10, 20_000]), lo=0, width=100)
@settings(max_examples=300)
def test_partners_match_searchsorted(ta, tb, lo, width):
    # Windows that hold less than one tb event on average and more than one.
    hi = lo + width
    first, counts = mc._partners(ta, tb, lo, hi)
    want = np.searchsorted(tb, ta + lo)
    assert np.array_equal(first, want) and np.array_equal(counts, np.searchsorted(tb, ta + hi) - want)


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
# An infinite gate is one 2000 ps interferometer delay: deltas from -1000 to
# 999 ps. 4000 and 5999 make four-folds, 6000 (it would too) is out.
@example(
    b1=np.array([5000]), b2=np.array([4000, 5999, 6000]), alice=np.array([3000]), bob=np.array([5000]),
    gate=math.inf, budget=1,
)  # fmt: skip
@settings(max_examples=200)
def test_fourfold_coincidences_match_loop_oracle(b1, b2, alice, bob, gate, budget):
    # On the 125 ps grid, moved by up to 2 ps, the heralding times and analyzer
    # windows fall on, and 1 ps either side of, each other's edges, and the
    # heralding times fall on whole and half ps.
    cfg = ApparatusConfig()
    stream = Stream({"bsm1": b1, "bsm2": b2, "alice": alice, "bob": bob}, cfg, 0, 1.0)
    with mock.patch.object(mc, "_PAIR_BUDGET", budget):
        got = fourfold_coincidences(stream, gate)
    assert got == loop_fourfold(b1, b2, alice, bob, gate if gate < math.inf else 2000.0, 2000, 1000)


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


def _file_analyses(runs: dict) -> list:
    hom = hom_histogram((runs["co"], runs["cross"]))
    return [
        *((g2.counts.tolist(), g2.central_counts, g2.side_counts, g2.g2_zero)
          for g2 in (g2_histogram(runs["hbt"], bin_ps) for bin_ps in (100.0, 1.0))),
        hom.copolarized.counts.tolist(), hom.crossed.counts.tolist(),
        hom.copolarized.cluster_counts, hom.crossed.cluster_counts, hom.visibility,
        [fourfold_coincidences(runs["swap"], gate) for gate in (47.0, 2000.0, math.inf)],
        twofold_control_coincidences(runs["swap"]),
    ]  # fmt: skip


@pytest.fixture(scope="module")
def written_runs(tmp_path_factory):
    """The folder of the stream files of an hbt_xx run with background, a
    co/cross HOM pair and a swap run, and the analyses of those runs."""
    hbt = ApparatusConfig(topology="hbt_xx", background_ratio=0.0055, **FAST)
    hom = ApparatusConfig(topology="hom", **FAST)
    # The swap run has lossless detectors and the H/V analyzers, which the
    # heralded state correlates best: its four-folds inside the 47 ps gate
    # average 6.1e-4 per period (150 seeds of 8000 periods), so about 5.5
    # are expected here: the chance of none, which the test rejects, is e^-5.5.
    swap = ApparatusConfig(alice_setting="H", bob_setting="V", efficiency=1.0, dead_time_ns=0.0)
    runs = {
        "hbt": Run(hbt, 3, _periods(hbt, 4000)),
        "co": Run(hom, 6, _periods(hom, 4000)),
        "cross": Run(replace(hom, hom_copolarized=False), 7, _periods(hom, 4000)),
        "swap": Run(swap, 8, _periods(swap, 9000)),
    }
    folder = tmp_path_factory.mktemp("runs")
    for name, run in runs.items():
        write_stream(run, folder / f"{name}.bin")
    return folder, _file_analyses(runs)


@pytest.mark.parametrize("read_records", [None, 997, 5])
def test_analyses_of_a_stream_file_equal_those_of_its_run(monkeypatch, tmp_path, written_runs, read_records):
    # The file holds the very int64 ps times the run's segments do; read
    # back a block at a time, at the default, a prime and a single digit.
    if read_records is not None:
        monkeypatch.setattr(mc, "_READ_RECORDS", read_records)
    folder, want = written_runs
    files = {name: read_stream(folder / f"{name}.bin") for name in ("hbt", "co", "cross", "swap")}
    assert _file_analyses(files) == want
    assert min(want[-2]) > 0 and want[-1] > 0
    # Written back, a file is the same bytes.
    for name, run in files.items():
        write_stream(run, tmp_path / f"{name}.bin")
        for suffix in (".bin", ".json"):
            assert (tmp_path / f"{name}{suffix}").read_bytes() == (folder / f"{name}{suffix}").read_bytes()

    # One, two or three events at each time on both channels, so equal times
    # on different channels and on one fall on every block edge.
    t = np.repeat(np.arange(400) * 1000, 1 + np.arange(400) % 3)
    hand = Stream({"d1": t, "d2": t.copy()}, ApparatusConfig(topology="hbt_xx"))
    write_stream(hand, tmp_path / "hand.bin")
    back = read_stream(tmp_path / "hand.bin")
    got = joined_segments(back)  # which checks that no boundary splits a time
    assert all(np.array_equal(got[name], times) for name, times in hand.channels.items())
    assert sum(1 for _ in back.segments()) >= 2 * t.size // mc._READ_RECORDS
    a, b = g2_histogram(hand), g2_histogram(back)
    assert a.counts.tolist() == b.counts.tolist() and (a.central_counts, a.side_counts) == (b.central_counts, b.side_counts)


def test_reading_a_stream_file_has_bounded_memory(monkeypatch, tmp_path):
    # A file four times longer reads under the same ceiling, set by the block
    # of _READ_RECORDS records: the block, its int64 times, the block joined
    # to the carried records, the segment and the one the caller still holds
    # (about 37 B per block record here), never the whole file (6.8 MB of
    # records and times for the longer one).
    monkeypatch.setattr(mc, "_READ_RECORDS", 1 << 12)
    ceiling = 48 * mc._READ_RECORDS
    cfg = ApparatusConfig(topology="hbt_xx")
    peaks = []
    for n in (50_000, 200_000):
        t = np.arange(n) * 1000
        path = tmp_path / f"{n}.bin"
        write_stream(Stream({"d1": t, "d2": t + 500}, cfg), path)
        run = read_stream(path)
        peaks.append(_traced_peak(lambda: sum(1 for _ in run.segments())))
    assert max(peaks) < ceiling, (peaks, ceiling)


def test_g2_memory_does_not_grow_with_pair_count(monkeypatch):
    """Dense streams of 5.7M and 11.5M pairs stay under one fixed ceiling.

    Materialising every pair costs about 72 bytes a pair (400 MB here); the
    streamed analysis holds one budget of pairs and one block of events.
    """
    # 10,000 and 20,000 events are two and three search blocks of 8192.
    monkeypatch.setattr(mc, "_PAIR_BUDGET", 1 << 13)
    cfg = ApparatusConfig(topology="hbt_xx")
    # Ten 8-byte temporaries per budgeted pair, twice over, and nothing per event.
    ceiling = 2 * 10 * 8 * mc._PAIR_BUDGET
    pairs, peaks = [], []
    for n in (10_000, 20_000):
        ta = np.arange(n) * 250
        stream = Stream({"d1": ta, "d2": ta + 100}, cfg, 0, 1.0)
        tracemalloc.start()
        try:
            result = g2_histogram(stream)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] < ceiling, (n, peaks[-1], ceiling)
        pairs.append(int(result.counts.sum()))
    assert pairs[0] >= 5_000_000 and pairs[1] >= 2 * pairs[0] - 10_000
    # Twice the events add less than one 8-byte value per budgeted pair to the peak.
    assert peaks[1] < peaks[0] + 8 * mc._PAIR_BUDGET, peaks


def test_coincidences_memory_per_histogram_bin():
    # 1.45M bins of 1 ps over ten times g2's +-72 ns on 2,000-event channels:
    # the centers, the integer cuts, their rank table and the counts, below
    # the 7.5 float64 per bin of the analysis before the rank kernel (10.1
    # with float cuts).
    rng = np.random.default_rng(5)
    ta, tb = (np.sort(rng.integers(0, 10**8, 2000)) for _ in range(2))
    nbins = 2 * int(10 * _G2_SPAN) + 1
    tracemalloc.start()
    try:
        centers, hist, _ = mc._coincidences([(ta, tb)], 10 * _G2_SPAN, _G2_OFFSETS, 500, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert centers.size == hist.size == nbins > 1_440_000
    assert peak < 7.5 * 8 * nbins, peak / (8 * nbins)


def test_fourfold_memory_does_not_grow_with_pair_count(monkeypatch):
    """Dense streams of about 1M and 2M BSM pairs stay under one fixed ceiling.

    Materialising every pair costs about 56 bytes a pair (56 and 113 MB
    here); the streamed count holds one budget of pairs and one block of
    BSM1 events.
    """
    # 12,500 and 25,000 BSM1 events are two and four search blocks of 8192.
    monkeypatch.setattr(mc, "_PAIR_BUDGET", 1 << 13)
    cfg = ApparatusConfig()
    # Twelve 8-byte temporaries per budgeted pair, and nothing per event.
    ceiling = 12 * 8 * mc._PAIR_BUDGET
    counts, peaks = [], []
    for n in (12_500, 25_000):
        t = np.arange(n) * 250
        channels = {"bsm1": t, "bsm2": t + 100, "alice": t, "bob": t + 50}
        stream = Stream(channels, cfg, 0, 1.0)
        tracemalloc.start()
        try:
            # A 20 ns gate pairs each BSM1 event with 80 BSM2 events.
            counts.append(fourfold_coincidences(stream, 20_000.0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] < ceiling, (n, peaks[-1], ceiling)
    assert counts[0] >= 990_000 and counts[1] >= 2 * counts[0] - 10_000
    # Twice the events add less than one 8-byte value per budgeted pair to the peak.
    assert peaks[1] < peaks[0] + 8 * mc._PAIR_BUDGET, peaks


@pytest.mark.parametrize("topology, per_period", [("hbt_xx", 24), ("swap", 80)])
@pytest.mark.parametrize("chunks", [2, 8])
def test_simulate_holds_its_stream_plus_one_channel(monkeypatch, topology, per_period, chunks):
    """Beyond its output, a run holds at most ``per_period`` B per chunk
    period in the chunks it holds, plus one channel while it merges.

    Without dead time the output is every generated event, so a merge that
    held the stream twice would exceed the ceiling at 8 chunks.
    """
    chunk = 1 << 14
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", chunk)
    cfg = ApparatusConfig(topology=topology, dead_time_ns=0.0, background_ratio=0.01, dark_rate_hz=1e5)
    simulate(cfg, _periods(cfg, 100), seed=1)  # first-call allocations
    tracemalloc.start()
    try:
        stream = simulate(cfg, _periods(cfg, chunks * chunk), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [times.nbytes for times in stream.channels.values()]
    ceiling = 2 * per_period * chunk + max(sizes)
    assert peak - sum(sizes) < ceiling, (peak - sum(sizes)) / chunk


def test_a_long_run_holds_few_default_chunks():
    """A run of 16 default chunks peaks at 3.6 MB.

    The bound is fixed in bytes, so chunks that grow back fail it: this run
    peaks at 7.1 MB in 2**17-period chunks and at 14.1 MB in 2**18.
    """
    cfg = ApparatusConfig(topology="hbt_xx", background_ratio=TUNED_G2_BACKGROUND_RATIO)  # the g2 apparatus
    for _ in Run(cfg, 1, _periods(cfg, 100)).segments():  # first-call allocations
        pass
    events = 0
    tracemalloc.start()
    try:
        for _, segment in Run(cfg, 3, _periods(cfg, 16 * mc._CHUNK_PERIODS)).segments():
            events += sum(times.size for times in segment.values())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events > 0.75 * 16 * mc._CHUNK_PERIODS
    assert peak < 5_000_000, peak


def test_merge_and_blocked_search_match_the_whole_stream_oracles(monkeypatch, recorded_chunks):
    # At 2**20-period chunks, two per run, the joined segments and the
    # blocked pair search give the streams and counts of the whole-stream
    # merge and the whole-channel search.
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", 1 << 20)
    hbt = ApparatusConfig(topology="hbt_xx", background_ratio=0.0055)
    swap = ApparatusConfig()
    streams = []
    for cfg in (hbt, swap):
        recorded_chunks.clear()
        streams.append(simulate(cfg, _periods(cfg, (1 << 20) + 50_000), seed=17))
        assert len(recorded_chunks) == 2
        want = whole_stream_merge(recorded_chunks, *_end_and_dead_ps(cfg, (1 << 20) + 50_000))
        got = streams[-1].channels
        assert got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in want)

    def analyses(hbt_source, swap_source):
        g2 = g2_histogram(hbt_source)
        return (
            g2.counts, g2.side_counts, g2.g2_zero,
            [fourfold_coincidences(swap_source, gate) for gate in (47.0, 2000.0, math.inf)],
            twofold_control_coincidences(swap_source),
        )  # fmt: skip

    # The runs read as two segments give the counts of their joined streams.
    runs = [Run(s.config, s.seed, s.duration_s) for s in streams]
    got, segmented = analyses(*streams), analyses(*runs)
    monkeypatch.setattr(mc, "_pair_chunks", whole_channel_pair_chunks)
    want = analyses(*streams)
    for result in (got, segmented):
        assert np.array_equal(result[0], want[0]) and result[1:] == want[1:]
    assert streams[0].channels["d1"].size > 2 * mc._PAIR_BUDGET and got[3][1] > 0


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
    # Control counts have no BSM gate, so a gate for them is an error, not ignored.
    with pytest.raises(McError, match="take no BSM gate"):
        simulate_tomography_run(cfg, settings, periods_per_setting=50_000, seed=5, heralded=False, gate_ps=47.0)


def test_simulate_tomography_run_defaults_to_the_configured_gate():
    # The default [bsm] gate is inf, one 2 ns interferometer delay wide.
    settings = standard_settings(16)[1:5]
    counts = {}
    for bsm_gate, gate in ((math.inf, None), (math.inf, 2000.0), (47.0, None), (47.0, 47.0)):
        cfg = ApparatusConfig(bsm=BsmSettings(gate_ps=bsm_gate), **FAST)
        counts[bsm_gate, gate] = simulate_tomography_run(cfg, settings, 60_000, seed=8, heralded=True, gate_ps=gate).counts
    assert np.array_equal(counts[math.inf, None], counts[math.inf, 2000.0])
    assert np.array_equal(counts[47.0, None], counts[47.0, 47.0])
    assert counts[47.0, None].sum() < counts[math.inf, None].sum()


@pytest.mark.parametrize("mzi_delay_ns", [2.0, 3.0005])
def test_infinite_gate_is_one_interferometer_delay(mzi_delay_ns):
    cfg = ApparatusConfig(mzi_delay_ns=mzi_delay_ns, alice_setting="D", bob_setting="D", **FAST)
    stream = simulate(cfg, _periods(cfg, 20_000), seed=36)
    assert fourfold_coincidences(stream, math.inf) == fourfold_coincidences(stream, 1000 * mzi_delay_ns) > 0
    assert fourfold_coincidences(stream) == fourfold_coincidences(stream, math.inf)  # the default [bsm] gate


@given(
    variants=st.lists(
        st.fixed_dictionaries(
            {"alice_setting": st.sampled_from(["H", "D", None]), "bob_setting": st.sampled_from(["V", "A", None])},
            optional={"bsm_delay_offset_ps": st.sampled_from([-300.0, 0.0, 250.0])},
        ),
        max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12)
def test_simulate_runs_seeds_each_run_from_one_seed_sequence(variants, seed):
    # 3000 periods in 375-period chunks: eight per run.
    cfg = ApparatusConfig(**FAST)
    duration = _periods(cfg, 3000)
    seeds = np.random.SeedSequence(seed).generate_state(len(variants))
    with mock.patch.object(mc, "_CHUNK_PERIODS", 375):
        want = [simulate(replace(cfg, **v), duration, int(s)).channels for v, s in zip(variants, seeds)]
        got = simulate_runs(cfg, duration, variants, seed, joined_segments)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.keys() == w.keys() and all(np.array_equal(g[k], w[k]) for k in w)


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
    """simulate() equals a run with the given mc functions swapped for their
    oracles, at the default draw block and at one that 4096-period chunks end inside."""
    # Eight chunks, so the draws of later chunks are covered too.
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", 4096)
    streams = []
    for block in (mc._DRAW_BLOCK, 1000):
        monkeypatch.setattr(mc, "_DRAW_BLOCK", block)
        streams.append(simulate(cfg, _periods(cfg, 30_000), seed=9))
    for name, oracle_fn in oracles.items():
        monkeypatch.setattr(mc, name, oracle_fn)
    oracle = simulate(cfg, _periods(cfg, 30_000), seed=9)
    for name in oracle.channels:
        for stream in streams:
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
    # One chunk leaves its generator where the oracle's draws leave it, so a
    # draw that no output reads cannot hide from the comparison above.
    rng, want = np.random.default_rng(4), np.random.default_rng(4)
    got = mc._chunk_swap(cfg, mc._swap_tables(cfg), 3, 5000, rng)
    expected = full_array_chunk_swap(cfg, loop_swap_tables(cfg), 3, 5000, want)
    assert all(np.array_equal(got[name], times) for name, times in expected.items())
    assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("convention", list(BsmConvention))
@pytest.mark.parametrize(
    "source, atol",
    [
        (SourceParams(), 0.0),
        # The einsum and the loop sum a depolarized state's Born terms in a
        # different order: some CDFs differ in the last bit (1 ulp, 2.2e-16).
        (SourceParams(f1=0.8, f2=0.7, model=NoiseKind.DEPOLARIZING), 4 * np.finfo(float).eps),
    ],
    ids=["dephasing", "depolarizing"],
)
def test_swap_tables_match_loop_oracle(convention, source, atol):
    for setting in standard_settings(36) + [None]:
        analyzers = (setting.projector_a, setting.projector_b) if setting else (None, None)
        cfg = ApparatusConfig(
            alice_setting=analyzers[0], bob_setting=analyzers[1], source=source, bsm=BsmSettings(convention=convention)
        )
        tables, oracle = mc._swap_tables(cfg), loop_swap_tables(cfg)
        for ci in range(4):
            if atol == 0.0:
                assert np.array_equal(tables["cdfs"][ci], oracle["ind_cdf"][ci])
                assert np.array_equal(tables["cdfs"][4 + ci], oracle["dist_cdf"][ci])
            else:
                np.testing.assert_allclose(tables["cdfs"][ci], oracle["ind_cdf"][ci], rtol=0.0, atol=atol)
                np.testing.assert_allclose(tables["cdfs"][4 + ci], oracle["dist_cdf"][ci], rtol=0.0, atol=atol)


@pytest.mark.parametrize("convention", list(BsmConvention))
def test_swap_tables_do_not_leak_across_sources(convention):
    # The four-photon state is computed once per source: tables for source A,
    # then B, then A again each equal the loop oracle's.
    a, b = SourceParams(), SourceParams(f1=0.85, f2=0.9, model=NoiseKind.FSS_PHASE_DIFFUSION)
    cdfs = []
    for source in (a, b, a):
        cfg = ApparatusConfig(alice_setting="D", bob_setting="R", source=source, bsm=BsmSettings(convention=convention))
        tables, oracle = mc._swap_tables(cfg), loop_swap_tables(cfg)
        for ci in range(4):
            assert np.array_equal(tables["cdfs"][ci], oracle["ind_cdf"][ci])
            assert np.array_equal(tables["cdfs"][4 + ci], oracle["dist_cdf"][ci])
        cdfs.append(np.concatenate(tables["cdfs"]))
    assert not np.array_equal(cdfs[0], cdfs[1])


@pytest.mark.parametrize("topology, float_arrays", [("hom", 5), ("hbt_xx", 4.5), ("hbt_x", 4.5), ("swap", 6.5)])
def test_chunk_generators_hold_few_period_arrays(topology, float_arrays):
    # The full-array versions peak at 103 B (hom), 60 B (hbt) and 180 B (swap)
    # per period; these peak at 34, 35 and 45 B. The swap bound is below the
    # 54 B of a generator that holds every X photon's arrival time.
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


@pytest.mark.parametrize("efficiency", [1.0, 0.8])
def test_per_channel_stage_holds_few_event_arrays(monkeypatch, efficiency):
    # Efficiency, background, jitter, rounding and sort of one chunk's raw
    # channels, made before tracing starts: the kept events of a channel
    # are built in one new array, every draw goes a block at a time. This
    # peaks at about 1 float64 per raw event, the whole-array draws at 1.53
    # (efficiency 1) and 1.28 (0.8). The run is one chunk.
    n = 1 << 17
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", n)
    cfg = ApparatusConfig(
        topology="hbt_xx", efficiency=efficiency, background_ratio=0.01, dead_time_ns=0.0,
        bsm=BsmSettings(jitter_ps=30.0),
    )  # fmt: skip
    raw = mc._chunk_hbt(cfg, 0, n, np.random.default_rng(2))
    events = sum(t.size for t in raw.values())
    monkeypatch.setattr(mc, "_chunk_hbt", lambda *args: raw)
    tracemalloc.start()
    try:
        ((_, channels),) = Run(cfg, 3, _periods(cfg, n)).segments()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(t.size for t in channels.values()) > efficiency * 0.99 * events
    assert peak < 1.1 * 8 * events, peak / (8 * events)


@pytest.mark.parametrize("n", [0, 1, "B-1", "B", "B+1", "3B+7"])
def test_blocked_draws_match_whole_array_expressions(n):
    b = mc._DRAW_BLOCK
    n = {"B-1": b - 1, "B": b, "B+1": b + 1, "3B+7": 3 * b + 7}.get(n, n)
    rng, want = np.random.default_rng(5), np.random.default_rng(5)
    arr, mask = want.random(n), want.random(n) < 0.6
    rng.random(2 * n)
    # Each pair of calls draws the same values and leaves the generators in step.
    assert np.array_equal(mc._coins(rng, n, 0.8), want.random(n) < 0.8)
    blocks = [u.copy() for _, u in mc._uniform_blocks(rng, n)]
    assert np.array_equal(np.concatenate([np.empty(0), *blocks]), want.random(n))
    got = arr.copy()
    mc._add_draws(got, rng.standard_exponential, 2.5)
    assert np.array_equal(got, arr + want.exponential(2.5, n))
    got = arr.copy()
    mc._add_draws(got, rng.standard_normal, 0.03)
    assert np.array_equal(got, arr + want.normal(0.0, 0.03, n))
    assert rng.random() == want.random()
    # The helpers that draw nothing.
    got = arr.copy()
    mc._add_masked(got, mask, 2.12)
    assert np.array_equal(got, arr + mask * 2.12)
    head = np.arange(3.0)
    assert np.array_equal(mc._channel(head, (mask, arr), arr[:5]), np.concatenate([head, arr[mask], arr[:5]]))
    cfg = ApparatusConfig()
    got1, got2 = arr.copy(), arr[::-1].copy()
    mc._pulse_arrivals(cfg, 77, got1, got2)
    base = (77 + np.arange(n, dtype=float)) * cfg.period_ns
    assert np.array_equal(got1, arr + base) and np.array_equal(got2, arr[::-1] + (base + cfg.mzi_delay_ns))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, "B+3"])
def test_bits_are_the_unpacked_bits_of_random_bytes(n):
    n = mc._DRAW_BLOCK + 3 if n == "B+3" else n
    rng, want = np.random.default_rng(6), np.random.default_rng(6)
    got = mc._bits(rng, n)
    packed = want.integers(0, 256, -(-n // 8), dtype=np.uint8)
    assert got.dtype == bool and np.array_equal(got, np.unpackbits(packed, count=n).astype(bool))
    # It draws ceil(n / 8) bytes and nothing more.
    assert rng.bit_generator.state == want.bit_generator.state


# sha256 of each channel's name and int64 times, in name order, for the runs
# of `_run_digest`. Each entry was regenerated when its generator began to
# draw fair coins as bits and only the uniforms it reads ("swap" also only
# the exciton delays of the X photons that pass their analyzers). Regenerate
# an entry (only for a deliberate change of the streams) from the digest a
# failing run puts in its message.
_RUN_DIGESTS = {
    "swap": "e44abf2a1e11f8a6ee1dcf54398bc707065f67f2274d07fc6f7cf31845f636a2",
    "hbt_x": "1ce3d259128fb2aa9d5a9135a7244d336f2441343f5765702ddda72f7d0def2c",
    "hbt_xx": "d9911780ab63ec9d4808f50eeb5f153fb437a5808353267749054f8f11f8fb86",
    "hom": "faf2eaab002f5f8673f8696aeda640fd001c20e856dff3e2ea0bc12b93ff5ee6",
}


def _run_digest(topology: str) -> str:
    """Digest of a fixed-seed three-chunk run (8192-period chunks) with every
    noise source on: per-channel efficiencies, background, dark counts,
    jitter, dead time and a BSM delay offset."""
    efficiency = {"bsm1": 0.7, "bsm2": 0.6, "alice": 0.9, "bob": 0.5, "d1": 0.65, "d2": 0.75}
    cfg = ApparatusConfig(
        topology=topology, hom_copolarized=False, bsm_delay_offset_ps=120.0, efficiency=efficiency,
        background_ratio=0.01, dark_rate_hz=1e5, dead_time_ns=5.0, bsm=BsmSettings(jitter_ps=30.0),
    )  # fmt: skip
    stream = simulate(cfg, _periods(cfg, 20_000), seed=22)
    digest = hashlib.sha256()
    for name in sorted(stream.channels):
        digest.update(name.encode())
        digest.update(stream.channels[name].astype("<i8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("topology", sorted(_RUN_DIGESTS))
def test_whole_runs_match_pinned_digests(monkeypatch, topology):
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", 8192)
    for block in (mc._DRAW_BLOCK, 1000):
        monkeypatch.setattr(mc, "_DRAW_BLOCK", block)
        digest = _run_digest(topology)
        assert digest == _RUN_DIGESTS[topology], f"{topology} at _DRAW_BLOCK {block}: {digest}"


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
    clusters=st.lists(st.binary(min_size=2, max_size=10), min_size=9, max_size=16),
    tail=st.binary(min_size=100, max_size=500),
)
# Many 3-event clusters whose third event lands exactly on the dead time
# after the first: 3 x 100 = 300, 11 x 100 = 1100 and 80 x 250 = 20000 ps.
@example(grid_ps=100, dead_ps=300, start=0, clusters=[bytes([1, 2])] * 200, tail=bytes([1] * 100))
@example(grid_ps=100, dead_ps=1100, start=0, clusters=[bytes([4, 7])] * 200, tail=bytes([3] * 100))
@example(grid_ps=250, dead_ps=20_000, start=0, clusters=[bytes([40, 40])] * 200, tail=bytes([40] * 100))
def test_dead_time_filter_rounds_down_to_one_cluster_match_serial_loop(grid_ps, dead_ps, start, clusters, tail):
    # Steps below `gap` grid units stay in a cluster, one of `gap` units
    # starts the next; the `tail` cluster is longer than all the others, so
    # the last vectorised rounds test it alone.
    gap = -(-dead_ps // grid_ps)
    steps = [k for cluster in [*clusters, tail] for k in [gap] + [s % gap for s in cluster]]
    times = (start + np.cumsum(steps, dtype=np.int64)) * grid_ps
    lengths = _long_clusters(times, dead_ps)
    assert lengths.size > 8 and lengths[-1] > np.sort(lengths)[-2]
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


@pytest.mark.parametrize(
    "topology, analyzers, noisy",
    [("swap", ("H", "V"), False), ("swap", (None, None), False), ("hbt_xx", (None, None), False),
     ("swap", ("D", "A"), True), ("hbt_xx", (None, None), True)],
)  # fmt: skip
def test_dead_time_matches_serial_filter_of_live_stream(monkeypatch, recorded_chunks, topology, analyzers, noisy):
    # Dead time draws no random numbers, so a 20 ns run equals the serial
    # filter of the same run at 0 ns; eight chunks per run.
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", 4096)
    noise = dict(background_ratio=0.01, dark_rate_hz=1e5) if noisy else {}
    cfg = ApparatusConfig(
        topology=topology, alice_setting=analyzers[0], bob_setting=analyzers[1], dead_time_ns=20.0, **noise
    )
    live = simulate(cfg, _periods(cfg, 30_000), seed=12)
    raw = simulate(replace(cfg, dead_time_ns=0.0), _periods(cfg, 30_000), seed=12)
    assert len(recorded_chunks) == 2 * 8
    for name, times in raw.channels.items():
        assert _long_clusters(times, 20_000).size > 8, name
        assert np.array_equal(live.channels[name], serial_dead_time_filter(times, 20_000))


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


def _end_and_dead_ps(cfg: ApparatusConfig, periods: int) -> tuple[int, int]:
    """A run's [0, end) cut in whole ps and its dead time in whole ps."""
    return math.ceil(periods * cfg.period_ns * 1000.0), math.ceil(cfg.dead_time_ns * 1000.0)


@pytest.fixture
def recorded_chunks(monkeypatch) -> list[dict]:
    """Copies of every chunk the segment generator reads: its ``map`` of
    ``run_chunk`` over the chunk indices, shadowed in ``mc``."""
    chunks = []

    def recording(run_chunk, indices):
        assert run_chunk.__name__ == "run_chunk"
        for chunk in map(run_chunk, indices):
            chunks.append({name: times.copy() for name, times in chunk.items()})
            yield chunk

    monkeypatch.setattr(mc, "map", recording, raising=False)
    return chunks


_NOISY = dict(background_ratio=0.01, dark_rate_hz=1e5, dead_time_ns=20.0)


@pytest.mark.parametrize(
    "topology, apparatus, seed, below_zero",
    [("swap", _NOISY, 4, False), ("hbt_x", _NOISY, 4, False), ("hom", _NOISY, 4, False),
     ("hbt_xx", _NOISY, 4, False),
     # The g2 apparatus of the benchmark, with a first-chunk d1 event moved
     # below 0, as jitter can put one: the run's [0, end) cut drops it.
     ("hbt_xx", dict(background_ratio=0.0055, dead_time_ns=0.0), 1416005386, True)],
)  # fmt: skip
# Power-of-two chunks, and chunks whose boundaries fall elsewhere in the run.
@pytest.mark.parametrize("chunk_periods, n_chunks", [(1 << 13, 11), (6000, 14)])
def test_joined_segments_match_the_whole_stream_merge(
    monkeypatch, recorded_chunks, topology, apparatus, seed, below_zero, chunk_periods, n_chunks
):
    periods = 5 * (1 << 14) + 1000
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", chunk_periods)
    if below_zero:
        chunk_hbt = mc._chunk_hbt

        def early_event(config, start, n, rng):
            raw = chunk_hbt(config, start, n, rng)
            if start == 0:
                raw["d1"][0] = -0.5  # ns, so about 500 ps before the run starts after jitter
            return raw

        monkeypatch.setattr(mc, "_chunk_hbt", early_event)
    cfg = ApparatusConfig(topology=topology, **apparatus)
    got = joined_segments(Run(cfg, seed, _periods(cfg, periods)))
    assert len(recorded_chunks) == n_chunks
    if below_zero:
        assert min(int(t[0]) for t in recorded_chunks[0].values()) < 0
    want = whole_stream_merge(recorded_chunks, *_end_and_dead_ps(cfg, periods))
    stream = simulate(cfg, _periods(cfg, periods), seed)
    assert got.keys() == want.keys() == stream.channels.keys()
    for name in want:
        assert want[name].size > 0
        assert np.array_equal(got[name], want[name]) and np.array_equal(stream.channels[name], want[name])


def test_default_chunks_match_the_whole_stream_merge(recorded_chunks):
    # Eight default chunks, the last one period long.
    cfg = ApparatusConfig(**FAST)
    periods = 7 * mc._CHUNK_PERIODS + 1
    got = joined_segments(Run(cfg, 4, _periods(cfg, periods)))
    assert len(recorded_chunks) == 8
    want = whole_stream_merge(recorded_chunks, *_end_and_dead_ps(cfg, periods))
    assert got.keys() == want.keys()
    for name, times in want.items():
        assert times.size > 0 and np.array_equal(got[name], times), name


def test_a_chunk_below_a_released_boundary_is_an_error(monkeypatch):
    # The third chunk gains an event at 0 ps, below the first event of the
    # second chunk, which the generator has already released up to.
    chunk, chunk_hbt = 1 << 12, mc._chunk_hbt
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", chunk)

    def late_event(config, start, n, rng):
        raw = chunk_hbt(config, start, n, rng)
        if start == 2 * chunk:
            raw["d1"] = np.append(raw["d1"], 0.0)
        return raw

    monkeypatch.setattr(mc, "_chunk_hbt", late_event)
    cfg = ApparatusConfig(topology="hbt_xx", bsm=BsmSettings(jitter_ps=0.0), **FAST)
    with pytest.raises(McError, match="chunk 2 has an event at 0 ps, below the released boundary"):
        simulate(cfg, _periods(cfg, 4 * chunk), seed=1)


def test_a_run_is_generated_in_the_callers_thread(monkeypatch):
    # A 16-chunk run starts no thread while its segments are read.
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", 1 << 12)
    cfg = ApparatusConfig(topology="hbt_xx", **FAST)
    duration = _periods(cfg, 16 * (1 << 12))
    before = threading.active_count()
    counts = [threading.active_count() for _ in Run(cfg, 1, duration).segments()]
    assert counts == [before] * 16


def test_a_consumer_that_stops_early_leaves_no_worker_behind(monkeypatch):
    # Nor does it start one in an analysis that raises mid-run, or for a
    # reader that stops early.
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", 1 << 12)
    cfg = ApparatusConfig(topology="hbt_xx", **FAST)
    duration = _periods(cfg, 16 * (1 << 12))
    before = threading.active_count()
    # An analysis that raises mid-run, its traceback still held.
    pair_chunks, calls = mc._pair_chunks, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("analysis failed")
        return pair_chunks(*args)

    monkeypatch.setattr(mc, "_pair_chunks", failing)
    with pytest.raises(RuntimeError, match="analysis failed") as raised:
        simulate_runs(cfg, duration, [{}], 1, g2_histogram)
    assert raised.traceback and threading.active_count() == before
    # A reader that closes the segments after the first.
    segments = Run(cfg, 1, duration).segments()
    next(segments)
    assert threading.active_count() == before
    segments.close()
    assert threading.active_count() == before


_CUT_GATES = (47.0, 2000.0, math.inf)


@functools.cache
def _one_window_analyses() -> tuple[dict[str, Stream], dict]:
    """The streams the segment-cut test reads, and their analyses as one window."""
    hbt = ApparatusConfig(topology="hbt_xx", background_ratio=0.01, **FAST)
    hom = ApparatusConfig(topology="hom", **FAST)
    swap = ApparatusConfig(alice_setting="D", bob_setting="D", **FAST)
    streams = {
        "hbt": simulate(hbt, _periods(hbt, 4000), seed=5),
        "co": simulate(hom, _periods(hom, 4000), seed=6),
        "cross": simulate(replace(hom, hom_copolarized=False), _periods(hom, 4000), seed=7),
        "swap": simulate(swap, _periods(swap, 20_000), seed=8),
    }
    want = {
        "g2": [g2_histogram(streams["hbt"], bin_ps) for bin_ps in (100.0, 7.0)],
        "hom": hom_histogram((streams["co"], streams["cross"])),
        "fourfold": [fourfold_coincidences(streams["swap"], gate) for gate in _CUT_GATES],
        "control": twofold_control_coincidences(streams["swap"]),
    }
    return streams, want


@given(
    # Boundaries anywhere in the streams, down to segments far shorter than
    # any analysis span, empty ones and repeated boundaries.
    cuts=st.lists(st.integers(-1000, 300_000_000), max_size=12).map(sorted),
    short=st.lists(st.integers(0, 60_000), max_size=6),
)
@example(cuts=[], short=[])
@example(cuts=[0, 0, 1], short=[1, 1, 2, 3, 5, 8])
@settings(max_examples=30)
def test_analyses_of_segments_cut_anywhere_equal_one_window(cuts, short):
    streams, want = _one_window_analyses()
    # Some boundaries close together, inside every run (the shortest ends at 52.6 us).
    bounds = sorted(cuts + [25_000_000 + 10_000 * k for k in short])

    def cut(name):
        return CutStream(streams[name], bounds)

    for bin_ps, w in zip((100.0, 7.0), want["g2"]):
        got = g2_histogram(cut("hbt"), bin_ps)
        assert np.array_equal(got.counts, w.counts) and got.side_counts == w.side_counts
        assert got.central_counts == w.central_counts and got.g2_zero == w.g2_zero
    got = hom_histogram((cut("co"), cut("cross")))
    for w, g in ((want["hom"].copolarized, got.copolarized), (want["hom"].crossed, got.crossed)):
        assert np.array_equal(g.counts, w.counts) and g.cluster_counts == w.cluster_counts
    assert got.visibility == want["hom"].visibility
    assert [fourfold_coincidences(cut("swap"), gate) for gate in _CUT_GATES] == want["fourfold"]
    assert twofold_control_coincidences(cut("swap")) == want["control"]
    assert min(want["fourfold"]) > 0 and want["control"] > 0


@pytest.mark.parametrize("chunk_periods", [1 << 13, 6000])  # eleven and fourteen chunks
def test_write_stream_segment_by_segment_equals_a_whole_stream_write(monkeypatch, tmp_path, chunk_periods):
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", chunk_periods)
    cfg = ApparatusConfig(alice_setting="D", bob_setting=None, **_NOISY)
    duration = _periods(cfg, 5 * (1 << 14) + 1000)
    counts = write_stream(Run(cfg, 7, duration), tmp_path / "segments.bin")
    stream = simulate(cfg, duration, seed=7)
    whole_stream_write(stream, tmp_path / "whole.bin")
    assert counts == stream.counts() and min(counts.values()) > 0
    for suffix in (".bin", ".json"):
        assert (tmp_path / f"segments{suffix}").read_bytes() == (tmp_path / f"whole{suffix}").read_bytes()
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


def test_a_failed_write_leaves_no_file(monkeypatch, tmp_path):
    # The third of four chunks fails to generate, once the first segment's
    # records are in the temporary file.
    chunk, chunk_swap = 1 << 12, mc._chunk_swap
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", chunk)
    written = []

    def failing(config, tables, start, n, rng):
        if start >= 2 * chunk:
            written.extend(p.stat().st_size for p in tmp_path.iterdir())
            raise RuntimeError("generation failed")
        return chunk_swap(config, tables, start, n, rng)

    monkeypatch.setattr(mc, "_chunk_swap", failing)
    cfg = ApparatusConfig(**FAST)
    with pytest.raises(RuntimeError, match="generation failed"):
        write_stream(Run(cfg, 1, _periods(cfg, 4 * chunk)), tmp_path / "stream.bin")
    assert len(written) == 1 and written[0] > 0, written
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cap", ["1", "2", "two", "0", "-3", ""])
def test_a_set_thread_cap_is_not_read(monkeypatch, tmp_path, cap):
    # Runs are generated in one thread, so SWAPSIM_THREADS, which older
    # releases read and rejected unless a positive integer, changes nothing.
    argv = ["mc-run", "--duration", "1e-4", "--out-dir"]
    monkeypatch.delenv("SWAPSIM_THREADS", raising=False)
    assert cli.main([*argv, str(tmp_path / "unset")]) == 0
    monkeypatch.setenv("SWAPSIM_THREADS", cap)
    assert cli.main([*argv, str(tmp_path / "set")]) == 0
    for name in ("stream.bin", "stream.json"):
        assert (tmp_path / "set" / name).read_bytes() == (tmp_path / "unset" / name).read_bytes(), name


def test_an_exception_in_an_atomic_file_block_leaves_no_file(monkeypatch, tmp_path):
    target = tmp_path / "out" / "report.json"
    with pytest.raises(RuntimeError, match="interrupted"), atomic_file(target) as handle:
        handle.write("{}")
        raise RuntimeError("interrupted")
    assert list(target.parent.iterdir()) == []
    # A complete file takes the permissions a plain open() gives, not a temp file's 0600.
    with atomic_file(target) as handle:
        handle.write("{}")
    (tmp_path / "plain.json").write_text("{}")
    assert target.stat().st_mode == (tmp_path / "plain.json").stat().st_mode
    assert [p.name for p in target.parent.iterdir()] == ["report.json"]

    def interrupted(payload):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(mc, "json_text", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        write_stream(Run(ApparatusConfig(**FAST), 1, 1e-5), tmp_path / "stream.bin")
    # The stream is replaced only after its sidecar, so neither file is left.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "plain.json"]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("topology", ["hbt_xx", "swap"])
def test_dead_time_does_not_wait_for_the_whole_run(monkeypatch, topology):
    # 2**14-period chunks, background 0.01 and the default 20 ns dead time.
    # A run read segment by segment holds a few chunks, however long: its
    # peak, less one chunk's output, does not grow with it. Holding every
    # hbt_xx chunk until a whole-run merge, it grew by 4 MB from 4 to 16 chunks.
    chunk = 1 << 14
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", chunk)
    cfg = ApparatusConfig(topology=topology, background_ratio=0.01)
    events = []

    def count(run):
        events.append(sum(sum(t.size for t in channels.values()) for _, channels in run.segments()))

    simulate_runs(cfg, _periods(cfg, 100), [{}], 1, count)  # first-call allocations
    peaks = [_traced_peak(lambda: simulate_runs(cfg, _periods(cfg, n * chunk), [{}], 3, count)) for n in (8, 16)]
    slack = 8 * events[-1] / 16
    assert peaks[1] < peaks[0] + slack, (peaks, slack)


@pytest.mark.parametrize("topology", ["hbt_xx", "hbt_x"])  # g2 --line xx and --line x
def test_g2_memory_does_not_grow_with_duration(monkeypatch, topology):
    # Twice the run, the same peak to 10 %: a streamed g2 holds a few chunks,
    # one budget of pairs and the strip of events near a segment boundary.
    chunk = 1 << 14
    monkeypatch.setattr(mc, "_CHUNK_PERIODS", chunk)
    cfg = ApparatusConfig(topology=topology, background_ratio=0.0055, dead_time_ns=0.0)
    g2_histogram(Run(cfg, 1, _periods(cfg, 100)))  # first-call allocations
    peaks = [_traced_peak(lambda: g2_histogram(Run(cfg, 2, _periods(cfg, n * chunk)))) for n in (8, 16)]
    assert peaks[1] < 1.1 * peaks[0], peaks
