"""swapsim benchmark: four workloads over both computation routes.

Usage, from the repository root:

    python3 perfbench/run.py --workload dm-gate-sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # summary table
    python3 -m pytest perfbench/tests                           # the benchmark's tests

A run generates its inputs from ``--seed`` (see workloads.py), then starts
fresh Python processes that import swapsim from ``src/``, load the generated
inputs and warm up (``setup_s`` ends here), then time further passes until
their share of ``--seconds`` is used and at least two (four on
tomo-bootstrap) have run. Every pass is checked; a failed check or a CLI
error exit makes the run exit 1.

``--trace 0`` reports the end-to-end metrics: the median set-up and pass
CPU time, both scaled to the reference host speed (see calibrate), and the
median peak RSS of the processes (unscaled CPU times, wall-clock figures and
``failed_frac`` are printed too). ``--trace 1`` runs one untraced and one
traced process (plus, on mc-coincidence, a traced single-thread one) and
reports the per-layer metrics of tracing.py and the tracing overhead. The
last line of standard output is one JSON object; the lines before it give
each metric with its sample count, the exact-count fingerprint and the
machine record, which are also written to ``perfbench/_results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

PROCESSES = 2  # fresh processes per untraced run: set-up samples and RSS samples
MAX_PASSES = 50
DEADLINE_S = 170.0

# The end-to-end metrics of BENCHMARK.json. Set-up and pass cost are gated as
# process CPU time: on a shared virtual machine stolen time moves wall-clock
# times by 25-50 % between runs. CPU time drifts with the host's speed too,
# by 25 % over minutes and at times by 2x, so the gated CPU times are scaled to a
# reference speed by a calibration loop timed in the same processes (see
# calibrate and _speed_scale). The unscaled CPU and wall-clock figures are
# still measured, printed and recorded.
END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
UNITS = {**END_TO_END, "setup_raw_s": "s", "cpu_raw_s": "s", "setup_wall_s": "s", "wall_s": "s"}

# CPU seconds of calibrate() on the 2-vCPU machine of the baseline in BASELINE.md.
CALIBRATION_REF_S = 0.16
# After each pass the loop runs until it has used this share of the pass's CPU
# time: once after a short pass, more often after a long one.
CALIBRATION_SHARE = 0.1


# swapsim's matrices are 4x4 to 16x16: BLAS worker threads only spin after
# each call, which adds their CPU time and its noise to every pass.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pinned_threads() -> int:
    """The simulation thread cap: never more workers than cores, at most two."""
    return max(1, min(2, os.cpu_count() or 1))


def calibrate() -> float:
    """CPU seconds of a fixed loop of the benchmark's own code: the host's current speed.

    Half of it is small-matrix numpy and interpreter work, like the density
    matrix and tomography routes; half is vectorised sorting and scans of one
    1 MB array, like the event streams of mc, kept that small so as not to
    raise a workload's peak RSS. swapsim code is never called, so a change to
    the program cannot move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = a @ a.conj().T
    big = rng.random(1 << 17)
    cpu0 = time.process_time()
    m, acc = a, {}
    for i in range(4000):
        m = (m @ a) / np.trace(m @ a).real
        acc[i % 97] = acc.get(i % 97, 0.0) + float(np.linalg.eigvalsh(m)[0])
    for _ in range(16):  # in place: one 1 MB array in all
        big.sort()
        np.remainder(np.cumsum(big, out=big), 1.0, out=big)
    return time.process_time() - cpu0


def _import_swapsim():
    if not (SRC / "swapsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no swapsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import swapsim

    if Path(swapsim.__file__).resolve().parent != SRC / "swapsim":
        raise SystemExit(f"error: imported swapsim from {swapsim.__file__}, not {SRC}")
    return swapsim


# --------------------------------------------------------------------------
# child process: set-up, warm-up, timed passes


def child_main(args) -> int:
    started = time.perf_counter()
    _import_swapsim()
    import workloads

    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer().install()
    workload = workloads.Workload(args.workload, Path(args.inputs), Path(args.out))
    report = {"ops": 0, "failed_ops": 0, "resamples": 0, "rejected": 0, "problems": [],
              "pass_s": [], "pass_cpu_s": [], "calibration_s": [], "pass_fingerprints": {}}  # fmt: skip

    def run_pass(index: int):
        try:
            result = workload.warm_up() if index == 0 else workload.run_pass(index)
        except Exception:
            report["ops"] += 1
            report["failed_ops"] += 1
            report["problems"].append(f"pass {index}: {traceback.format_exc()}")
            return None
        for key in ("ops", "failed_ops", "resamples", "rejected"):
            report[key] += getattr(result, key)
        report["problems"] += [f"pass {index}: {p}" for p in result.problems]
        if index == 0:
            report["fingerprint"] = result.fingerprint
        else:
            report["pass_fingerprints"][index] = result.fingerprint
        return result

    workload.setup()
    run_pass(0)
    report["setup_wall_s"] = time.perf_counter() - started
    report["setup_cpu_s"] = time.process_time()  # CPU seconds since the process started
    calibrate()  # its first call is slower: numpy code paths and dict growth are cold
    report["calibration_s"].append(calibrate())
    window_start = time.perf_counter()
    for attempt in range(MAX_PASSES):
        if report["problems"]:
            break
        t0, cpu0 = time.perf_counter(), time.process_time()
        result = run_pass(args.first + attempt * args.stride)
        if result is not None:
            report["pass_s"].append(time.perf_counter() - t0)
            report["pass_cpu_s"].append(time.process_time() - cpu0)
            calibrated = 0.0
            while calibrated < CALIBRATION_SHARE * report["pass_cpu_s"][-1]:
                report["calibration_s"].append(calibrate())
                calibrated += report["calibration_s"][-1]
            used = time.perf_counter() - window_start
            if len(report["pass_s"]) >= workload.min_passes() and used + report["pass_s"][-1] > args.budget:
                break
    window = (window_start, time.perf_counter())
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and report["pass_s"]:
        import tracing

        passes = len(report["pass_s"])
        report["layers"] = tracing.layer_metrics(tracer.spans, window, passes)
        report["simulate_mperiods_per_s"] = tracing.simulate_rate(tracer.spans, window)
        pass0 = [s for s in tracer.spans if s.start < window_start]
        report["fingerprint"].update(_trace_fingerprint(pass0))
        tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(report))
    return 1 if report["problems"] else 0


def _trace_fingerprint(spans) -> dict:
    """Exact counts seen by the tracer during the warm-up pass."""
    events: dict[str, int] = {}
    for span in spans:
        for channel, n in span.extra.get("events", {}).items():
            key = f"{span.extra['topology']}.{channel}"
            events[key] = events.get(key, 0) + n
    mle = [s for s in spans if s.name == "tomography.mle_reconstruct"]
    iterations = [s.extra["iterations"] for s in mle]
    found = {
        "events_per_channel": dict(sorted(events.items())),
        "mle_iterations": iterations if len(mle) <= 4 else {"calls": len(mle), "total": sum(iterations)},
        "mle_failures": sum("error" in s.extra for s in mle),
        "histogram_pairs": {s.name: s.extra["pairs"] for s in spans if "pairs" in s.extra},
    }
    return {k: v for k, v in found.items() if v or (k == "mle_failures" and mle)}


# --------------------------------------------------------------------------
# parent process: inputs, children, aggregation


def _spawn(workload, seed, inputs, work, tag, first, stride, budget, traced, threads, deadline) -> dict:
    out = work / tag
    result_path, spans_path = work / f"{tag}.json", RESULTS / f"{workload}-s{seed}-{tag}-spans.jsonl"
    env = {**os.environ, **BLAS_ENV, "SWAPSIM_THREADS": str(threads), "PYTHONPATH": str(SRC)}
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
        "--inputs", str(inputs), "--out", str(out), "--result", str(result_path),
        "--spans", str(spans_path), "--budget", repr(budget), "--traced", str(int(traced)),
        "--first", str(first), "--stride", str(stride),
    ]  # fmt: skip
    failed = {"ops": 1, "failed_ops": 1, "resamples": 0, "rejected": 0, "pass_s": [], "tag": tag}
    try:
        proc = subprocess.run(
            argv, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        return {**failed, "problems": [f"{tag}: timed out"]}
    if not result_path.is_file():
        return {**failed, "problems": [f"{tag}: exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    report = json.loads(result_path.read_text())
    report["tag"] = tag
    if proc.returncode != 0 and not report["problems"]:
        report["problems"].append(f"{tag}: exited {proc.returncode}: {proc.stderr[-2000:]}")
    return report


def _speed_scale(reports) -> float:
    """The factor that takes CPU seconds of these processes to seconds at the reference speed.

    It is CALIBRATION_REF_S over the median calibration of the processes
    (one after the warm-up, one or more after every timed pass). One calibration
    scatters by ~15 % with the host's second-to-second speed, which a
    multi-second pass averages out, so the run's CPU times are all scaled by
    the median of its samples rather than each by its neighbours.
    """
    return CALIBRATION_REF_S / statistics.median(c for r in reports for c in r["calibration_s"])


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "SWAPSIM_THREADS": pinned_threads(),
        **BLAS_ENV,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    inputs = work / "inputs"
    workloads.generate_inputs(workload, seed, inputs)
    threads = pinned_threads()
    # (tag, traced, threads, first timed pass, stride): untraced processes
    # interleave their passes; traced ones repeat the plain one's passes.
    if trace:
        plan = [("plain", False, threads, 1, 1), ("traced", True, threads, 1, 1)]
        if workload == "mc-coincidence":
            plan.append(("traced-1thread", True, 1, 1, 1))
    else:
        plan = [(f"p{k}", False, threads, k + 1, PROCESSES) for k in range(PROCESSES)]
    budget = seconds / len(plan)
    reports = []
    for tag, traced, n_threads, first, stride in plan:
        reports.append(
            _spawn(workload, seed, inputs, work, tag, first, stride, budget, traced, n_threads, deadline)
        )
        if reports[-1]["problems"]:
            break
    shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in reports for p in r["problems"]]
    problems += [f"{r['tag']}: no timed pass succeeded" for r in reports if not problems and not r["pass_s"]]
    prints = [r.get("fingerprint") for r in reports]
    common = set.intersection(*(set(p) for p in prints)) if all(prints) else set()
    if not problems and any({k: p[k] for k in common} != {k: prints[0][k] for k in common} for p in prints):
        problems.append(f"warm-up fingerprints differ between processes: {prints}")
    fingerprint = max(prints, key=lambda p: len(p or {})) or {}
    ops = sum(r["ops"] for r in reports)
    failed = sum(r["failed_ops"] for r in reports)
    if problems and failed == 0:
        failed = 1
    resamples = sum(r["resamples"] for r in reports)
    rejected = sum(r["rejected"] for r in reports)

    samples: dict[str, tuple[float, int]] = {}
    if not problems:
        if trace:
            plain, traced = reports[0], reports[1]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = statistics.median(traced["pass_s"]) - statistics.median(plain["pass_s"])
            metrics["trace.overhead_cpu_s"] = (
                statistics.median(traced["pass_cpu_s"]) * _speed_scale([traced])
                - statistics.median(plain["pass_cpu_s"]) * _speed_scale([plain])
            )
            single = reports[2]["simulate_mperiods_per_s"] if len(reports) > 2 else 0.0
            metrics["mc.simulate.mperiods_per_s.threads1"] = single
            metrics["mc.simulate.mperiods_per_s.threads_pinned"] = (
                traced["simulate_mperiods_per_s"] if len(reports) > 2 else 0.0
            )
            samples = {name: (value, len(traced["pass_s"])) for name, value in metrics.items()}
        else:
            def median(values):
                return statistics.median(values), len(values)

            def per_pass(key):
                return median([v for r in reports for v in r[key]])

            scale = _speed_scale(reports)
            setup, cpu = median([r["setup_cpu_s"] for r in reports]), per_pass("pass_cpu_s")
            samples = {
                "setup_s": (setup[0] * scale, setup[1]),
                "setup_raw_s": setup,
                "setup_wall_s": median([r["setup_wall_s"] for r in reports]),
                "cpu_s": (cpu[0] * scale, cpu[1]),
                "cpu_raw_s": cpu,
                "wall_s": per_pass("pass_s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), len(reports)),
            }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "fingerprint": fingerprint,
        "attempted": ops,
        "failed": failed,
        "bootstrap_resamples": resamples,
        "strict_mle_rejected": rejected,
        "metrics": {k: {"value": v, "samples": n} for k, (v, n) in samples.items()},
        # Each timed pass's exact counts, keyed by pass index.
        "pass_fingerprints": dict(
            sorted(
                ((int(i), fp) for r in reports for i, fp in r.get("pass_fingerprints", {}).items()),
                key=lambda item: item[0],
            )
        ),
        "processes": [
            {k: r.get(k) for k in ("tag", "setup_cpu_s", "setup_wall_s", "pass_s", "pass_cpu_s", "calibration_s",
                                   "peak_rss_mb")}  # fmt: skip
            for r in reports
        ],
        "problems": problems,
    }
    (RESULTS / f"{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps(record, indent=2))
    return record, not problems


def _unit(name: str) -> str:
    import tracing

    return UNITS.get(name) or tracing.PER_LAYER_UNITS[name]


def print_record(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {_unit(name):<10} (n={m['samples']})")
    ops = record["attempted"] + record["bootstrap_resamples"]
    lost = record["failed"] + record["strict_mle_rejected"]
    print(
        f"  {'failed_frac':<52} {lost / max(ops, 1):>14.6g} {'ratio':<10} "
        f"({record['failed']} of {record['attempted']} operations failed; strict MLE rejected "
        f"{record['strict_mle_rejected']} of {record['bootstrap_resamples']} bootstrap resamples)"
    )
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for problem in record["problems"]:
        print("FAILED " + problem.strip().replace("\n", "\n       "))


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    for hidden in ("--inputs", "--out", "--result", "--spans"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--first", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--stride", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    _import_swapsim()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    all_ok = True
    for name in names:
        record, ok = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        all_ok &= ok
    if args.workload != "all":
        print(
            json.dumps(
                {
                    "correct": all_ok,
                    "attempted": max(record["attempted"], 1),
                    "failed": record["failed"],
                    "metrics": {
                        k: {"value": m["value"], "unit": _unit(k)}
                        for k, m in record["metrics"].items()
                        if args.trace or k in END_TO_END
                    },
                }
            )
        )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
