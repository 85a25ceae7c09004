import json
import math
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import simulate
from swapsim import cli, mc
from swapsim.cli import main
from swapsim.config import (
    ConfigError,
    default_config,
    load_config,
    write_default_config,
)
from swapsim.interference import BsmConvention, gate_response
from swapsim.params import config_hash, json_text
from swapsim.qstate import density_payload
from swapsim.source import NoiseKind
from swapsim.swap import predict
from swapsim.tomography import mle_reconstruct, run_from_csv

# Keys that once loaded but changed no output; each is now an unknown key.
REMOVED_KEYS = (
    ("bsm", "indistinguishability", "0.569"),
    ("source", "fss_uev", "0.0"),
    ("source", "t1_xx_ns", "0.12"),
    ("apparatus", "jitter_fwhm_ps", "50"),
    ("apparatus", "signal_rate_target_hz", "5e5"),
    ("tomography", "settings", "16"),
    ("tomography", "shots_per_setting", "10000"),
)


def test_default_config_valid():
    cfg = default_config()
    apparatus = cfg.apparatus
    assert apparatus.topology == "swap"
    assert cfg.bsm.gate_ps == math.inf
    assert len(config_hash(cfg)) == 16


def test_write_and_load_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    write_default_config(path)
    cfg = load_config(path)
    assert config_hash(cfg) == config_hash(default_config())


def test_load_ini_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
[source]
f1 = 0.95
model = depolarizing

[bsm]
gate_ps = 47
convention = psi_minus

[apparatus]
efficiency = 0.5
alice_setting = none

[output]
seed = 7
"""
    )
    cfg = load_config(path)
    assert cfg.source.f1 == 0.95
    assert cfg.source.model is NoiseKind.DEPOLARIZING
    assert cfg.bsm.gate_ps == 47.0
    assert cfg.bsm.convention is BsmConvention.PSI_MINUS
    assert cfg.apparatus.alice_setting is None
    assert cfg.output.seed == 7


def test_inline_comments_stripped(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[source]\nmodel = depolarizing  ; channel kind\nf1 = 0.95  # best emission\n"
    )
    cfg = load_config(path)
    assert cfg.source.model is NoiseKind.DEPOLARIZING
    assert cfg.source.f1 == 0.95


def test_load_json_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"source": {"f1": 0.93}, "output": {"seed": 3}}))
    cfg = load_config(path)
    assert cfg.source.f1 == 0.93
    assert cfg.output.seed == 3
    for seed in (7, "7", 7.0):
        path.write_text(json.dumps({"output": {"seed": seed}}))
        assert load_config(path).output.seed == 7
    path.write_text(json.dumps({"output": {"seed": 7.9}}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[source]\nf3 = 0.5\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[sauce]\nf1 = 0.9\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[apparatus]\nsource = 0.9\n")
    with pytest.raises(ConfigError):
        load_config(path)
    for section, key, value in REMOVED_KEYS:
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)


def test_one_owner_per_parameter(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[source]\nt1_x_ns = 0.3\n\n"
        "[bsm]\njitter_ps = 20\nt1_xx_ns = 0.15\nt2_xx_ns = 0.2\nintrinsic_limit = 0.9\n\n"
        "[apparatus]\ndead_time_ns = 0\n"
    )
    bsm = load_config(path).bsm
    received = []
    real_write = mc.write_stream

    def recording_write(run, out):
        received.append(run.config)
        return real_write(run, out)

    monkeypatch.setattr(mc, "write_stream", recording_write)
    assert main(["mc-run", "--duration", "1e-5", "--config", str(path),
                 "--out-dir", str(tmp_path)]) == 0
    (apparatus,) = received
    assert apparatus.bsm == bsm
    assert (bsm.t1_xx_ns, bsm.t2_xx_ns, bsm.jitter_ps, bsm.intrinsic_limit) == (0.15, 0.2, 20.0, 0.9)
    assert apparatus.source.t1_x_ns == 0.3


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "section, key",
    [
        ("apparatus", "rep_rate_hz"),
        ("apparatus", "mzi_delay_ns"),
        ("apparatus", "dead_time_ns"),
        ("apparatus", "dark_rate_hz"),
        ("apparatus", "background_ratio"),
        ("apparatus", "bsm_delay_offset_ps"),
        ("bsm", "t1_xx_ns"),
        ("bsm", "jitter_ps"),
        ("source", "t1_x_ns"),
    ],
)
def test_cli_rejects_non_finite_physical_parameters(tmp_path, capsys, section, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    argv = ["mc-run", "--duration", "1e-5", "--config", str(path), "--out-dir", str(tmp_path)]
    assert main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and f" {value} must be " in err
    assert list(tmp_path.iterdir()) == [path]


def test_physical_validation_at_load(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[source]\nf1 = 0.1\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[bsm]\nt2_xx_ns = 0.5\n")  # above 2*t1
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[output]\nformat = yaml\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_bootstrap_resamples_below_the_minimum_rejected_at_load(tmp_path, capsys):
    # Rejected when the config loads, before any reconstruction runs.
    path = tmp_path / "run.cfg"
    path.write_text("[tomography]\nbootstrap_resamples = 99\n")
    with pytest.raises(ConfigError, match=r"\[tomography\] bootstrap_resamples must be at least 100"):
        load_config(path)
    argv = ["tomo", "reconstruct", "--input", str(tmp_path / "nope.csv"), "--config", str(path)]
    assert main([*argv, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "bootstrap_resamples must be at least 100" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]
    path.write_text("[tomography]\nbootstrap_resamples = 100\n")
    assert load_config(path).tomography.bootstrap_resamples == 100


def test_efficiency_for_unknown_detector_rejected(tmp_path, capsys):
    path = tmp_path / "run.json"
    efficiency = {"alice": 0.8, "bob": 0.8, "bsm1": 0.8, "bms2": 0.8}
    path.write_text(json.dumps({"apparatus": {"efficiency": efficiency}}))
    with pytest.raises(ConfigError, match="bms2"):
        load_config(path)
    argv = ["mc-run", "--duration", "1e-5", "--config", str(path), "--out-dir", str(tmp_path)]
    assert main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown detectors ['bms2']" in err
    assert not (tmp_path / "stream.bin").exists()


@pytest.mark.parametrize("command", [["mc-run"], ["g2"], ["hom"]])
def test_efficiency_missing_a_run_detector_rejected(tmp_path, capsys, command):
    # The mapping loads (g2 and hom change the topology later), but no run
    # may leave a detector of its topology without an efficiency.
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"apparatus": {"efficiency": {"alice": 0.8, "bob": 0.8, "bsm1": 0.8, "d1": 0.8}}}))
    load_config(path)
    argv = [*command, "--duration", "1e-5", "--config", str(path), "--out-dir", str(tmp_path)]
    assert main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "efficiency mapping has no value" in err
    assert list(tmp_path.iterdir()) == [path]


def test_cli_report(tmp_path, capsys):
    assert main(["report", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["fidelity_ungated"] == pytest.approx(0.7122, abs=2e-3)
    assert payload["fidelity_max"] == pytest.approx(0.8729, abs=2e-3)
    assert payload["s_max"] == pytest.approx(2.4949, abs=2e-3)
    assert payload["fidelity_47ps"] == pytest.approx(0.81, abs=0.01)
    assert payload["bell_violated_47ps"] is True
    assert payload["control_fidelity_to_mixed"] > 0.999
    assert payload["provenance"]["config_hash"] == config_hash(default_config())


def test_cli_swap_predict_monotone(tmp_path):
    assert main(["swap-predict", "--gates", "10:500:10", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "swap_predict.csv").read_text().strip().splitlines()
    header = [l for l in lines if not l.startswith("#")][0].split(",")
    assert header == ["gate_ps", "i_eff", "fidelity", "s_value", "herald_prob", "rate_factor"]
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    fid = [float(r[2]) for r in rows]
    assert len(fid) == 50
    assert all(a >= b - 1e-12 for a, b in zip(fid, fid[1:]))


def test_delay_offset_reaches_swap_predict_and_report(tmp_path):
    # [apparatus] bsm_delay_offset_ps moves every Monte Carlo four-fold; the
    # density-matrix route reads the same offset.
    path = tmp_path / "offset.cfg"
    path.write_text("[apparatus]\nbsm_delay_offset_ps = 100\n")
    config = load_config(path)
    assert main(["swap-predict", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "swap_predict.csv").read_text()
    header, line = [line for line in text.splitlines() if not line.startswith("#")]
    assert header == "gate_ps,i_eff,fidelity,s_value,herald_prob,rate_factor"
    row = [float(x) for x in line.split(",")]
    (want,) = predict(config.source, config.bsm, [math.inf], offsets_ps=100.0)
    assert row == [math.inf, want.i_eff, want.fidelity, want.s_value, want.herald_prob, want.rate_factor]
    assert want.i_eff == pytest.approx(0.2473, abs=1e-4) and want.fidelity < 0.7
    assert main(["report", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert (payload["i_eff_ungated"], payload["fidelity_ungated"]) == (want.i_eff, want.fidelity)


def test_cli_swap_predict_rejects_zero_gate(tmp_path, capsys):
    assert main(["swap-predict", "--gates", "0:10:5", "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "gate width must be positive" in capsys.readouterr().err


def test_cli_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["swap-predict", "--gates", "40:200:40", "--seed", "5",
                     "--out-dir", str(out)]) == 0
    assert (out1 / "swap_predict.csv").read_bytes() == (out2 / "swap_predict.csv").read_bytes()


def test_cli_json_format(tmp_path):
    assert main(["swap-predict", "--gates", "47:47:1", "--format", "json",
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "swap_predict.json").read_text())
    assert payload["rho_ab"][0]["dim"] == 4
    assert len(payload["rows"]) == 1


def _reject_constant(name: str):
    raise ValueError(f"bare {name} is not JSON")


def test_cli_json_artifacts_are_strict_json(tmp_path):
    # RFC 8259 has no Infinity or NaN: a non-finite float is written as the
    # string its CSV cell holds, so a strict parser reads every artifact.
    csv_path = _write_pair_counts(tmp_path)
    out = tmp_path / "out"
    table = ["--format", "json"]  # report, tomo and mc-run write JSON and take no --format
    for argv in (
        ["swap-predict", *table],  # the configured gate is infinite
        ["report"],
        ["tomo", "reconstruct", "--input", str(csv_path), "--bootstrap", "100"],
        ["g2", "--duration", "1e-4", *table],
        ["hom", "--duration", "1e-4", *table],
        ["fourfold-scan", "--delays=0:100:100", "--gate", "inf", "--duration-per-point", "1e-4", *table],
        ["mc-run", "--duration", "1e-4"],  # the stream's sidecar
    ):
        assert main([*argv, "--out-dir", str(out)]) == 0
    payloads = {path.name: json.loads(path.read_text(), parse_constant=_reject_constant) for path in out.glob("*.json")}
    assert len(payloads) == 8
    assert payloads["swap_predict.json"]["rows"][0][0] == "inf"
    assert float(payloads["swap_predict.json"]["rows"][0][0]) == math.inf
    assert payloads["stream.json"]["config"]["bsm"]["gate_ps"] == "inf"
    # Each written state is its density_payload bit for bit (repr tells -0.0 from 0.0).
    config = default_config()
    curve = predict(config.source, config.bsm, [config.bsm.gate_ps], config.apparatus.bsm_delay_offset_ps)
    rho = mle_reconstruct(run_from_csv(csv_path.read_text()), strict=True)
    written = [*payloads["swap_predict.json"]["rho_ab"], payloads["tomo_reconstruct.json"]["rho"]]
    states = [*(density_payload(r, curve.labels) for r in curve.rho), density_payload(rho.matrix, rho.labels)]
    assert len(written) == len(states) == 2
    assert all(json.dumps(w, sort_keys=True) == json.dumps(s, sort_keys=True) for w, s in zip(written, states))


def test_json_text_names_non_finite_floats_and_keeps_finite_bytes():
    payload = {"a": [1.5, math.inf, (-math.inf, np.float64("nan"))], "b": {"c": np.float64(0.1), "d": True, "e": None}}
    text = json_text(payload)
    assert json.loads(text, parse_constant=_reject_constant) == {
        "a": [1.5, "inf", ["-inf", "nan"]], "b": {"c": 0.1, "d": True, "e": None}
    }  # fmt: skip
    finite = {"provenance": {"seed": 3}, "rows": [[0.1, 2, 1e-300], (4.0,)], "flag": False}
    assert json_text(finite) == json.dumps(finite, indent=2)


def _write_pair_counts(tmp_path) -> Path:
    from swapsim.qstate import relabel
    from swapsim.source import SourceParams, emit_pair
    from swapsim.tomography import run_to_csv, simulate_counts, standard_settings

    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    run = simulate_counts(src, standard_settings(16), 20000, rng_seed=4)
    csv_path = tmp_path / "run.csv"
    csv_path.write_text(run_to_csv(run))
    return csv_path


def test_cli_tomo_reconstruct(tmp_path):
    csv_path = _write_pair_counts(tmp_path)
    assert main(["tomo", "reconstruct", "--input", str(csv_path), "--settings", "16",
                 "--bootstrap", "100", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "tomo_reconstruct.json").read_text())
    assert payload["fidelity_phiplus"] == pytest.approx(0.9369, abs=0.02)
    assert payload["errors"]["resamples"] == 100
    assert payload["errors"]["fidelity_phiplus"] > 0


def test_cli_tomo_takes_a_zero_bootstrap_count_literally(tmp_path, capsys):
    # --bootstrap 0 is a count below the minimum, not "use the configured 250".
    csv_path = _write_pair_counts(tmp_path)
    argv = ["tomo", "reconstruct", "--input", str(csv_path), "--bootstrap", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least 100 bootstrap resamples" in err
    assert not (tmp_path / "tomo_reconstruct.json").exists()


# sha256 of a `tomo reconstruct --bootstrap 100 --seed 7` artifact less its
# provenance (sorted-key JSON, so every float counts bit for bit), computed
# from separate `mle_reconstruct(strict=True)` and `bootstrap_errors` calls,
# which the command's one batched solve must reproduce. Float digests hold
# for one numpy/LAPACK build.
TOMO_DIGESTS = {
    16: "3bb7c595cf1fdbbc18475b9a015732efe4352e8b7d06a36d4ec812646277e418",
    36: "fc44b8059ee26827005c3829a6a79d251f158f523543f3346d17ee2c3b324870",
}


@pytest.mark.parametrize("kind, shots", [(16, 20000), (36, 300)])
def test_cli_tomo_artifact_matches_pinned_digest(tmp_path, kind, shots):
    import hashlib

    from swapsim.qstate import relabel
    from swapsim.source import SourceParams, emit_pair
    from swapsim.tomography import run_to_csv, simulate_counts, standard_settings

    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    run = simulate_counts(src, standard_settings(kind), shots, rng_seed=4)
    (tmp_path / "run.csv").write_text(run_to_csv(run))
    argv = ["tomo", "reconstruct", "--input", str(tmp_path / "run.csv"), "--bootstrap", "100", "--seed", "7"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "tomo_reconstruct.json").read_text())
    del payload["provenance"]
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == TOMO_DIGESTS[kind]


@pytest.mark.parametrize(
    "counts, bootstrap, message",
    [
        (0.0, "100", "run contains no counts"),
        (100.0, "99", "use at least 100 bootstrap resamples"),
        # Every Poisson resample of so faint a run draws no count, so none has a usable inversion.
        (1e-6, "100", "too few successful bootstrap reconstructions"),
    ],
)
def test_cli_tomo_reports_point_and_resample_errors(tmp_path, capsys, counts, bootstrap, message):
    from swapsim.tomography import TomographyRun, run_to_csv, standard_settings

    csv_path = tmp_path / "run.csv"
    csv_path.write_text(run_to_csv(TomographyRun(tuple(standard_settings(16)), np.full(16, counts))))
    out = tmp_path / "out"
    argv = ["tomo", "reconstruct", "--input", str(csv_path), "--bootstrap", bootstrap, "--out-dir", str(out)]
    assert main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_mc_run_and_g2(tmp_path):
    cfg_path = tmp_path / "fast.cfg"
    cfg_path.write_text("[apparatus]\ndead_time_ns = 0\n\n[output]\nseed = 11\n")
    assert main(["mc-run", "--duration", "2e-4", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "stream.bin").exists()
    sidecar = json.loads((tmp_path / "stream.json").read_text())
    assert sidecar["seed"] == 11
    assert main(["g2", "--duration", "2e-3", "--line", "xx", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "g2_xx.csv").read_text()
    assert "g2_zero" in text and "bin_center_ps" in text


def test_cli_hom_and_scan(tmp_path, capsys):
    cfg_path = tmp_path / "fast.cfg"
    cfg_path.write_text("[apparatus]\ndead_time_ns = 0\n")
    assert main(["hom", "--duration", "2e-3", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "visibility" in out
    assert main(["fourfold-scan", "--delays=-300:300:150", "--gate", "2000",
                 "--duration-per-point", "2e-3", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "fourfold_scan.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#") and l]
    assert len(rows) == 1 + 2 * 5  # header + co/cross per delay
    assert rows[0] == "delay_ps,copolarized,i_eff,predicted_share,fourfolds"
    provenance = dict(l[2:].split(" = ") for l in lines if l.startswith("#"))
    assert set(provenance) == {"config_hash", "seed", "version", "chi2", "chi2_points"}
    assert float(provenance["chi2"]) >= 0.0 and int(provenance["chi2_points"]) <= 5
    for co, cross in zip(rows[1::2], rows[2::2]):
        (delay, _, i_co, share_co, _), (*_, i_cross, share_cross, _) = co.split(","), cross.split(",")
        assert i_co == i_cross and float(share_co) + float(share_cross) == pytest.approx(1.0)
        # The prediction reads each row's delay, inside the counted 2000 ps gate.
        assert float(i_co) == gate_response(default_config().bsm, [2000.0], float(delay))[0][0]


def test_cli_histogram_csv_columns_are_plain_numbers(tmp_path):
    cfg_path = tmp_path / "fast.cfg"
    cfg_path.write_text("[apparatus]\ndead_time_ns = 0\n")
    common = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
    assert main(["g2", "--duration", "2e-3", "--line", "xx", *common]) == 0
    assert main(["hom", "--duration", "2e-3", *common]) == 0
    for name in ("g2_xx", "hom_co", "hom_cross"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")]
        assert rows[0] == ["bin_center_ps", "counts"]
        assert len(rows) > 50
        for center, count in rows[1:]:
            float(center)
            int(count)


# Each subcommand's options besides -h/--help, --config, --seed and --out-dir.
COMMAND_OPTIONS = {
    "swap-predict": {"--gates", "--format"},
    "tomo": {"--input", "--settings", "--bootstrap"},
    "mc-run": {"--duration"},
    "g2": {"--duration", "--line", "--bin-ps", "--format"},
    "hom": {"--duration", "--bin-ps", "--format"},
    "fourfold-scan": {"--delays", "--gate", "--duration-per-point", "--format"},
    "report": set(),
}


def _options(parser) -> set[str]:
    return {option for action in parser._actions for option in action.option_strings}


def test_each_command_takes_only_the_options_it_reads():
    parser = cli.build_parser()
    assert _options(parser) == {"-h", "--help", "--version"}
    (commands,) = [action.choices for action in parser._actions if action.dest == "command"]
    shared = {"-h", "--help", "--config", "--seed", "--out-dir"}
    assert all(shared <= _options(p) for p in commands.values())
    assert {name: _options(p) - shared for name, p in commands.items()} == COMMAND_OPTIONS


_USAGE_ERRORS = [
    (["--seed", "5", "report"], "--seed goes after the subcommand"),
    (["--out-dir", "d", "report"], "--out-dir goes after the subcommand"),
    (["--config", "c.cfg", "report"], "--config goes after the subcommand"),
    (["--format", "json", "swap-predict"], "--format goes after the subcommand"),
    (["report", "--format", "json"], "unrecognized arguments: --format json"),
    (["tomo", "reconstruct", "--input", "run.csv", "--format", "json"], "unrecognized arguments: --format json"),
    (["mc-run", "--duration", "1e-5", "--format", "json"], "unrecognized arguments: --format json"),
    (["--seed=5", "report"], "--seed goes after the subcommand"),
    (["--duration", "1e-4", "g2"], "--duration goes after the subcommand"),
]


@pytest.mark.parametrize("argv, message", _USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(_USAGE_ERRORS))])
def test_an_option_a_command_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: swapsim" in err and f"swapsim: error: {message}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, artifacts",
    [
        (["swap-predict", "--gates", "47:47:1"], ["swap_predict.json"]),
        (["g2", "--duration", "1e-4"], ["g2_xx.json"]),
        (["hom", "--duration", "1e-4"], ["hom_co.json", "hom_cross.json"]),
        (["fourfold-scan", "--delays=0:0:1", "--duration-per-point", "1e-4"], ["fourfold_scan.json"]),
    ],
)
def test_table_options_after_the_command_reach_its_artifacts(tmp_path, monkeypatch, argv, artifacts):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--seed", "5", "--out-dir", "d", "--format", "json"]) == 0
    assert sorted(path.name for path in (tmp_path / "d").iterdir()) == artifacts
    for name in artifacts:
        assert json.loads((tmp_path / "d" / name).read_text())["provenance"]["seed"] == 5
    assert [path.name for path in tmp_path.iterdir()] == ["d"]


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[source]\nf1 = 0.1\n")
    assert main(["report", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["tomo", "reconstruct", "--input", str(tmp_path / "nope.csv")]) == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["g2", "--duration", "1e-4", "--bin-ps", "0"], "bin width must be positive"),
        (["g2", "--duration", "1e-4", "--bin-ps", "-5"], "bin width must be positive"),
        (["g2", "--duration", "1e-4", "--bin-ps", "nan"], "bin width must be positive"),
        (["hom", "--duration", "1e-4", "--bin-ps", "0"], "bin width must be positive"),
        (["fourfold-scan", "--delays=0:0:1", "--gate", "-100", "--duration-per-point", "1e-4"],
         "gate width must be positive"),
        (["fourfold-scan", "--delays=0:0:1", "--gate", "nan", "--duration-per-point", "1e-4"],
         "gate width must be positive"),
        (["mc-run", "--duration", "nan"], "duration_s nan is not a positive finite number"),
        (["mc-run", "--duration", "inf"], "duration_s inf is not a positive finite number"),
        (["g2", "--duration", "1e300"], "ends past 2**63 ps"),
        (["mc-run", "--duration", "1e7"], "ends past 2**63 ps"),
        (["mc-run", "--duration", "1e-4", "--config", "<config without bob>"], "no value for the swap detectors ['bob']"),
        (["g2", "--duration", "1e-4", "--bin-ps", "0.5"], "at least the 1 ps time unit"),
        (["g2", "--duration", "1e-4", "--bin-ps", "1e-6"], "at least the 1 ps time unit"),
        (["g2", "--duration", "1e-4", "--bin-ps", "1e-320"], "at least the 1 ps time unit"),
        (["hom", "--duration", "1e-4", "--bin-ps", "1e-6"], "at least the 1 ps time unit"),
        (["g2", "--duration", "1e-5", "--bin-ps", "inf"], "bin width must be positive, finite"),
        (["hom", "--duration", "1e-5", "--bin-ps", "inf"], "bin width must be positive, finite"),
        (["mc-run", "--duration", "1e-9"], "holds no whole period"),
        (["g2", "--duration", "1e-9"], "holds no whole period"),
        (["hom", "--duration", "1e-9"], "holds no whole period"),
        (["fourfold-scan", "--delays=0:0:1", "--duration-per-point", "1e-9"], "holds no whole period"),
        (["swap-predict", "--gates", "nan:10:1"], "invalid range"),
        (["swap-predict", "--gates", "0:inf:1"], "invalid range"),
        (["swap-predict", "--gates", "10:20:nan"], "invalid range"),
        (["swap-predict", "--gates=-inf:10:1"], "invalid range"),
        (["fourfold-scan", "--delays=nan:10:1", "--duration-per-point", "1e-4"], "invalid range"),
        (["swap-predict", "--gates", "1:1e12:1"], "more than 1048576 values"),
        (["swap-predict", "--gates", "0:0:1e-16"], "more than 1048576 values"),
        (["swap-predict", "--gates", "1e17:1e17:1"], "does not advance"),
        (["fourfold-scan", "--delays=1e17:1e17:1", "--duration-per-point", "1e-4"], "does not advance"),
    ],
)
def test_cli_rejects_malformed_analysis_inputs(tmp_path_factory, tmp_path, capsys, argv, message):
    # Input is checked before any artifact directory is made.
    config = tmp_path_factory.mktemp("config") / "no_bob.json"
    config.write_text(json.dumps({"apparatus": {"efficiency": {"bsm1": 0.8, "bsm2": 0.8, "alice": 0.8}}}))
    argv = [str(config) if arg == "<config without bob>" else arg for arg in argv]
    assert main([*argv, "--out-dir", str(tmp_path / "a" / "new")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert list(tmp_path.iterdir()) == []


# Each row replaces the second data row (line 3) of a valid 16-setting run CSV.
@pytest.mark.parametrize(
    "row, message",
    [
        ("H,V,many,1.0", "could not convert string to float: 'many'"),
        ("H,V,933", "the row does not have one cell per column"),
        ("H,V,933,1.0,1.0", "the row does not have one cell per column"),
        ("H,V,,1.0", "could not convert string to float: ''"),
        ("H,,933,1.0", "unknown projector ''"),
        ("H,V,nan,1.0", "counts must be finite and non-negative"),
        ("H,V,inf,1.0", "counts must be finite and non-negative"),
        ("H,V,933,nan", "exposures must be finite and positive"),
        ("H,V,933,inf", "exposures must be finite and positive"),
    ],
)
def test_cli_rejects_malformed_count_files(tmp_path, capsys, row, message):
    csv_path = _write_pair_counts(tmp_path)
    lines = csv_path.read_text().splitlines()
    lines[2] = row
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = ["tomo", "reconstruct", "--input", str(csv_path), "--bootstrap", "100", "--out-dir", str(out)]
    assert main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: run CSV line 3: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["config", "counts"])
def test_cli_names_a_file_that_is_not_utf8(tmp_path, capsys, kind):
    path = tmp_path / "latin1.txt"
    if kind == "config":
        path.write_bytes("[source]\nf1 = 0.93 ; r\u00e9glage\n".encode("latin-1"))
        argv = ["report", "--config", str(path)]
    else:
        path.write_bytes(_write_pair_counts(tmp_path).read_bytes().replace(b"H,H", b"H\xc9,H"))
        argv = ["tomo", "reconstruct", "--input", str(path), "--bootstrap", "100"]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{path} is not UTF-8 text" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["config", "counts"])
def test_cli_reads_files_that_start_with_a_byte_order_mark(tmp_path, kind):
    # Spreadsheet exports write one; it is not part of the first line.
    if kind == "config":
        path = tmp_path / "run.cfg"
        write_default_config(path)
        argv, artifact = ["report", "--config"], "report.json"
    else:
        path = _write_pair_counts(tmp_path)
        argv, artifact = ["tomo", "reconstruct", "--bootstrap", "100", "--input"], "tomo_reconstruct.json"
    marked = tmp_path / f"marked{path.suffix}"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    for name, file in (("plain", path), ("marked", marked)):
        assert main([*argv, str(file), "--out-dir", str(tmp_path / name)]) == 0
    assert (tmp_path / "marked" / artifact).read_bytes() == (tmp_path / "plain" / artifact).read_bytes()


@settings(max_examples=200)
@given(
    st.integers(-10**6, 10**6), st.integers(0, 2000), st.sampled_from(["1", "0.5", "0.25", "0.1", "0.05", "0.01", "0.001"])
)
@example(start_steps=10_000_000, count=10_000, step="0.01")  # 100000:100100:0.01
@example(start_steps=-7, count=7, step="0.1")  # -0.7:0:0.1 ends at 0.0, not -0.0
def test_parse_range_values_sit_on_their_grid(start_steps, count, step):
    start = start_steps * Decimal(step)
    values = cli._parse_range(f"{start}:{start + count * Decimal(step)}:{step}")
    assert values == [float(start + k * Decimal(step)) for k in range(count + 1)]
    assert all(math.copysign(1.0, v) == 1.0 for v in values if v == 0.0)


@pytest.mark.parametrize("command", ["g2", "hom", "mc-run"])
def test_negative_seed_rejected_from_flag_and_file(tmp_path, capsys, command):
    path = tmp_path / "run.cfg"
    path.write_text("[output]\nseed = -4\n")
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -4"):
        load_config(path)
    for extra in (["--seed", "-3"], ["--config", str(path)]):
        argv = [command, "--duration", "1e-5", *extra, "--out-dir", str(tmp_path)]
        assert main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed must be a non-negative integer" in err
    assert list(tmp_path.iterdir()) == [path]


def test_cli_rejects_more_bins_than_the_cap(tmp_path, capsys):
    # At 100 kHz the g2 span of +-5.5 periods holds 1.1e8 one-ps bins.
    cfg_path = tmp_path / "slow.cfg"
    cfg_path.write_text("[apparatus]\nrep_rate_hz = 1e5\n")
    argv = ["g2", "--duration", "1e-3", "--bin-ps", "1", "--config", str(cfg_path), "--out-dir", str(tmp_path)]
    assert main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bins over" in err


def test_cli_scan_takes_an_infinite_gate(tmp_path):
    # An infinite gate is one 2 ns interferometer delay wide, not every BSM pair.
    rows = {}
    for gate in ("inf", "2000"):
        assert main(["fourfold-scan", "--delays=0:100:100", "--gate", gate, "--duration-per-point", "2e-4",
                     "--out-dir", str(tmp_path / gate)]) == 0
        lines = (tmp_path / gate / "fourfold_scan.csv").read_text().splitlines()
        rows[gate] = [line for line in lines if not line.startswith("#")]
    assert len(rows["inf"]) == 5 and rows["inf"] == rows["2000"]


def test_cli_scan_gate_defaults_to_the_configured_gate(tmp_path):
    # Without --gate the scan counts inside [bsm] gate_ps: inf (one 2 ns
    # interferometer delay) by default, 47 ps when the config says so.
    narrow = tmp_path / "narrow.cfg"
    narrow.write_text("[bsm]\ngate_ps = 47\n")
    text = {}
    for name, extra in (("default", []), ("2000", ["--gate", "2000"]),
                        ("narrow", ["--config", str(narrow)]), ("narrow-47", ["--config", str(narrow), "--gate", "47"])):
        out = tmp_path / name
        assert main(["fourfold-scan", "--delays=0:100:100", "--duration-per-point", "1e-3", *extra,
                     "--out-dir", str(out)]) == 0
        text[name] = (out / "fourfold_scan.csv").read_text()
    assert text["default"] == text["2000"] and text["narrow"] == text["narrow-47"]
    rows = {name: [line for line in t.splitlines() if not line.startswith("#")][1:] for name, t in text.items()}
    counts = {name: sum(int(row.rsplit(",", 1)[1]) for row in r) for name, r in rows.items()}
    assert 0 < counts["narrow"] < counts["default"], counts


def test_scan_runs_of_different_seeds_never_share_a_stream(monkeypatch, tmp_path):
    # Seeded as seed + 101 i + j, point 1 of --seed 5 and point 0 of --seed
    # 106 were one stream; both are the co-polarized run at delay 0 here.
    streams, simulate_runs = [], mc.simulate_runs

    def recording_simulate_runs(base, duration_s, variants, seed, analysis):
        def recorded(run):
            streams.append(simulate(run.config, run.duration_s, run.seed))
            return analysis(run)

        return simulate_runs(base, duration_s, variants, seed, recorded)

    monkeypatch.setattr(mc, "simulate_runs", recording_simulate_runs)
    for seed, delays in ((5, "-100:0:100"), (106, "0:0:1")):
        argv = ["fourfold-scan", f"--delays={delays}", "--duration-per-point", "1e-4", "--seed", str(seed)]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    first, second = streams[2], streams[4]
    assert first.config == second.config and first.seed != second.seed
    assert not all(np.array_equal(first.channels[k], second.channels[k]) for k in first.channels)


def test_fourfold_scan_memory_does_not_grow_with_points(tmp_path):
    # Each stream is dropped after its four-fold count. Holding them all, the
    # peak was 7.8 MB at 2 delay points and 15.5 MB at 8.
    peaks = []
    for delays in ("0:100:100", "0:700:100"):
        tracemalloc.start()
        try:
            assert main(["fourfold-scan", f"--delays={delays}", "--duration-per-point", "1e-3",
                         "--out-dir", str(tmp_path)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks
