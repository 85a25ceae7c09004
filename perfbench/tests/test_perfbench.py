"""Tests of the benchmark itself: seeded inputs, self-time arithmetic, failing checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
import configparser
import math

import pytest

import run
import tracing
import workloads
from tracing import Span


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload, tmp_path):
    first = workloads.generate_inputs(workload, 11, tmp_path / "a")
    again = workloads.generate_inputs(workload, 11, tmp_path / "b")
    other = workloads.generate_inputs(workload, 12, tmp_path / "c")
    assert first["files"] == again["files"] == other["files"]
    for key, name in [*first["files"].items(), ("manifest", "manifest.json")]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # The tomo count file comes from a fixed seed; the workload seed drives the bootstrap.
        seeded = key != "counts"
        assert ((tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()) == seeded


def test_pass_seeds_differ_between_passes_and_repeat_across_processes():
    seeds = [workloads.pass_seed(5, i) for i in range(4)]
    assert len(set(seeds)) == 4
    assert seeds == [workloads.pass_seed(5, i) for i in range(4)]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("cli.main", 0.0, -1, 10.0),
        Span("swap.predict", 1.0, 0, 4.0),  # overlaps its sibling by one unit
        Span("mc.simulate", 3.0, 0, 6.0),
        Span("swap.herald", 2.0, 1, 3.0),
        Span("qstate.tensor", 9.0, 0, 12.0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_metrics_are_per_pass_and_only_inside_the_window():
    spans = [
        Span("config.load_config", 0.0, -1, 0.002),  # set-up: counted for load_config only
        Span("qstate.tensor", 0.5, -1, 0.6),
        Span("cli.main", 1.0, -1, 2.0),
        Span("qstate.tensor", 1.2, 2, 1.5),
        Span("cli.main", 3.0, -1, 3.5),
        Span("tomography.mle_reconstruct", 3.1, 4, 3.2, {"iterations": 7}),
        Span("tomography.mle_reconstruct", 3.2, 4, 3.4, {"iterations": 9, "error": "MleConvergenceError"}),
    ]
    m = tracing.layer_metrics(spans, (1.0, 4.0), passes=2)
    assert m["config.load_config.ms"] == pytest.approx(2.0)
    assert m["qstate.calls"] == 0.5
    assert m["qstate.self_ms"] == pytest.approx(150.0)
    assert m["cli.main.self_ms"] == pytest.approx((700.0 + 200.0) / 2)
    assert m["tomography.mle_reconstruct.calls"] == 1.0
    assert m["tomography.mle_reconstruct.failures"] == 0.5
    assert m["tomography.mle_reconstruct.iterations_p50"] == 8.0
    assert set(m) | {"trace.overhead_s", "trace.overhead_cpu_s", "mc.simulate.mperiods_per_s.threads1",
                     "mc.simulate.mperiods_per_s.threads_pinned"} == set(tracing.PER_LAYER_UNITS)  # fmt: skip
    assert all(math.isfinite(v) for v in m.values())


def test_out_of_band_output_fails_the_run(monkeypatch, capsys):
    generate = workloads.generate_inputs

    def tampered(workload, seed, directory):
        manifest = generate(workload, seed, directory)
        # A pair fidelity away from the calibrated 0.9369 moves F(47 ps) off 0.8100.
        path = directory / manifest["files"]["config"]
        parser = configparser.ConfigParser()
        parser.read(path)
        parser["source"]["f1"] = "0.99"
        with open(path, "w") as handle:
            parser.write(handle)
        return manifest

    monkeypatch.setattr(workloads, "generate_inputs", tampered)
    assert run.main(["--workload", "dm-gate-sweep", "--seed", "3", "--seconds", "1"]) == 1
    out = capsys.readouterr().out
    assert "does not round to 0.8100" in out
    assert out.splitlines()[-1].startswith('{"correct": false')



def test_speed_scale_uses_the_median_calibration_of_the_whole_run():
    reports = [{"calibration_s": [0.1, 0.4, 0.2]}, {"calibration_s": [0.3, 0.15]}]
    assert run._speed_scale(reports) == pytest.approx(run.CALIBRATION_REF_S / 0.2)
