import json
import math
from pathlib import Path

import numpy as np
import pytest

from swapsim import cli
from swapsim.cli import main
from swapsim.config import (
    ConfigError,
    default_config,
    load_config,
    write_default_config,
)
from swapsim.interference import BsmConvention
from swapsim.params import config_hash
from swapsim.source import NoiseKind

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
    temporal = load_config(path).bsm.temporal_model()
    received = []
    real_simulate = cli.simulate

    def recording_simulate(apparatus, duration_s, seed):
        received.append(apparatus)
        return real_simulate(apparatus, duration_s, seed)

    monkeypatch.setattr(cli, "simulate", recording_simulate)
    assert main(["mc-run", "--duration", "1e-5", "--config", str(path),
                 "--out-dir", str(tmp_path)]) == 0
    (apparatus,) = received
    assert (apparatus.bsm.t1_xx_ns, apparatus.bsm.t2_xx_ns, apparatus.bsm.jitter_ps) == (
        temporal.t1_ns, temporal.t2_ns, temporal.jitter_fwhm_ps,
    ) == (0.15, 0.2, 20.0)
    assert apparatus.bsm.intrinsic_limit == 0.9
    assert apparatus.source.t1_x_ns == 0.3


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


def test_cli_tomo_reconstruct(tmp_path):
    from swapsim.qstate import relabel
    from swapsim.source import SourceParams, emit_pair
    from swapsim.tomography import run_to_csv, simulate_counts, standard_settings

    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    run = simulate_counts(src, standard_settings(16), 20000, rng_seed=4)
    csv_path = tmp_path / "run.csv"
    csv_path.write_text(run_to_csv(run))
    assert main(["tomo", "reconstruct", "--input", str(csv_path), "--settings", "16",
                 "--bootstrap", "100", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "tomo_reconstruct.json").read_text())
    assert payload["fidelity_phiplus"] == pytest.approx(0.9369, abs=0.02)
    assert payload["errors"]["resamples"] == 100
    assert payload["errors"]["fidelity_phiplus"] > 0


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
        (["mc-run", "--duration", "nan"], "duration must be positive and finite"),
        (["mc-run", "--duration", "inf"], "duration must be positive and finite"),
        (["g2", "--duration", "1e-4", "--bin-ps", "1e-6"], "bins over"),
        (["g2", "--duration", "1e-4", "--bin-ps", "1e-320"], "bins over"),
        (["hom", "--duration", "1e-4", "--bin-ps", "1e-6"], "bins over"),
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
def test_cli_rejects_malformed_analysis_inputs(tmp_path, capsys, argv, message):
    assert main([*argv, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
