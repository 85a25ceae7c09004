"""Span tracing of swapsim's public functions, installed at run time from outside the package.

Every public function of the eight modules is replaced by a wrapper in every
swapsim namespace that holds it, so calls that one module makes into another
(``swapsim.tomography.mle_reconstruct`` as ``bootstrap_errors`` sees it,
``swapsim.cli.simulate``, ...) are traced too. Each call records one span:
name, start, end, parent span and a few exact counts read from the public
arguments and results. Spans stay in memory until the caller writes them out.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

MODULES = ("config", "cli", "source", "interference", "swap", "qstate", "tomography", "mc")

# Called once per quadrature node inside interference's integrands: a span
# there would time the tracer rather than the module.
SKIP = {"interference.gate_acceptance"}

# _pair_deltas materialises nine arrays of one 8-byte element per pair
# (three repeats, an arange, three index/arithmetic results, two gathers).
PAIR_BYTES = 9 * 8


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = math.nan
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of one process; ``install`` wraps the loaded swapsim modules."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> "Tracer":
        modules = [importlib.import_module(f"swapsim.{name}") for name in MODULES]
        namespaces = [m for key, m in sys.modules.items() if key.split(".")[0] == "swapsim"]
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(name, fn)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, key, wrapper)
        return self

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                index = len(self.spans)
                span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
                self.spans.append(span)
            stack.append(index)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs, span.extra)
            except BaseException as exc:
                span.extra["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            **span.extra,
                        }
                    )
                    + "\n"
                )


def _mle_hook(fn, args, kwargs, extra):
    # The iteration count is the length of the public ``history`` argument.
    history = args[4] if len(args) > 4 else kwargs.get("history")
    if history is None:
        history = []
        kwargs = {**kwargs, "history": history}
    try:
        return fn(*args, **kwargs)
    finally:
        extra["iterations"] = len(history)


def _simulate_hook(fn, args, kwargs, extra):
    from swapsim import mc

    config = args[0] if args else kwargs["config"]
    duration = args[1] if len(args) > 1 else kwargs["duration_s"]
    periods = int(duration * config.rep_rate_hz)
    chunks = max(1, -(-periods // mc._CHUNK_PERIODS))
    extra.update(
        topology=config.topology,
        periods=periods,
        chunks=chunks,
        workers=min(mc.worker_count(), chunks),
    )
    cpu = time.process_time()
    try:
        stream = fn(*args, **kwargs)
    finally:
        extra["cpu_s"] = time.process_time() - cpu
    extra["events"] = stream.counts()
    return stream


def _g2_hook(fn, args, kwargs, extra):
    result = fn(*args, **kwargs)
    extra["pairs"] = int(result.counts.sum())
    return result


def _hom_hook(fn, args, kwargs, extra):
    result = fn(*args, **kwargs)
    extra["pairs"] = int(result.copolarized.counts.sum() + result.crossed.counts.sum())
    return result


def _bootstrap_hook(fn, args, kwargs, extra):
    result = fn(*args, **kwargs)
    extra["resamples"] = result.resamples
    extra["failures"] = result.failures
    return result


_HOOKS = {
    "tomography.mle_reconstruct": _mle_hook,
    "tomography.bootstrap_errors": _bootstrap_hook,
    "mc.simulate": _simulate_hook,
    "mc.g2_histogram": _g2_hook,
    "mc.hom_histogram": _hom_hook,
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


PER_LAYER_UNITS = {
    "config.load_config.ms": "ms",
    "cli.main.self_ms": "ms",
    "source.emit_pair.calls": "count",
    "source.emit_pair.ms": "ms",
    "interference.effective_indistinguishability.calls": "count",
    "interference.effective_indistinguishability.ms_p50": "ms",
    "interference.effective_indistinguishability.ms_p90": "ms",
    "interference.heralding_rate_factor.calls": "count",
    "interference.heralding_rate_factor.ms_p50": "ms",
    "swap.herald.calls": "count",
    "swap.herald.ms_p50": "ms",
    "swap.predict.self_ms": "ms",
    "qstate.calls": "count",
    "qstate.self_ms": "ms",
    "tomography.mle_reconstruct.calls": "count",
    "tomography.mle_reconstruct.ms_p50": "ms",
    "tomography.mle_reconstruct.ms_p90": "ms",
    "tomography.mle_reconstruct.iterations_p50": "count",
    "tomography.mle_reconstruct.failures": "count",
    "tomography.bootstrap_errors.resamples_per_s": "1/s",
    "tomography.bootstrap_errors.mle_share": "ratio",
    "mc.simulate.mperiods_per_s.swap": "Mperiods/s",
    "mc.simulate.mperiods_per_s.hbt_xx": "Mperiods/s",
    "mc.simulate.mperiods_per_s.hom": "Mperiods/s",
    "mc.simulate.cpu_s": "s",
    "mc.simulate.chunks": "count",
    "mc.simulate.workers": "count",
    "mc.simulate.parallel_eff": "ratio",
    "mc.fourfold_coincidences.ms": "ms",
    "mc.g2_histogram.s": "s",
    "mc.g2_histogram.pairs": "count",
    "mc.hom_histogram.s": "s",
    "mc.hom_histogram.pairs": "count",
    "mc.pairs.bytes_computed": "B",
    "mc.simulate.mperiods_per_s.threads1": "Mperiods/s",
    "mc.simulate.mperiods_per_s.threads_pinned": "Mperiods/s",
    "trace.overhead_s": "s",
    "trace.overhead_cpu_s": "s",
}


def layer_metrics(spans: list[Span], window: tuple[float, float], passes: int) -> dict[str, float]:
    """Per-layer metrics of the spans that lie inside ``window``, per pass where summed.

    ``config.load_config.ms`` is the median over every call, set-up included,
    because that is where the library-path workloads load their config.
    """
    selfs = self_times(spans)
    inside = [
        (index, span, own)
        for index, (span, own) in enumerate(zip(spans, selfs))
        if window[0] <= span.start and span.end <= window[1]
    ]
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for _, span, own in inside:
        by_name.setdefault(span.name, []).append((span, own))

    def durations(name):
        return [s.duration for s, _ in by_name.get(name, ())]

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def per_pass_ms(name, own=False):
        return 1e3 * sum(o if own else s.duration for s, o in by_name.get(name, ())) / passes

    def ms(name, q):
        return 1e3 * _quantile(durations(name), q)

    m = {
        "config.load_config.ms": 1e3
        * _quantile([s.duration for s in spans if s.name == "config.load_config"], 0.5),
        "cli.main.self_ms": per_pass_ms("cli.main", own=True),
        "source.emit_pair.calls": calls("source.emit_pair"),
        "source.emit_pair.ms": per_pass_ms("source.emit_pair"),
        "interference.effective_indistinguishability.calls": calls(
            "interference.effective_indistinguishability"
        ),
        "interference.effective_indistinguishability.ms_p50": ms(
            "interference.effective_indistinguishability", 0.5
        ),
        "interference.effective_indistinguishability.ms_p90": ms(
            "interference.effective_indistinguishability", 0.9
        ),
        "interference.heralding_rate_factor.calls": calls("interference.heralding_rate_factor"),
        "interference.heralding_rate_factor.ms_p50": ms("interference.heralding_rate_factor", 0.5),
        "swap.herald.calls": calls("swap.herald"),
        "swap.herald.ms_p50": ms("swap.herald", 0.5),
        "swap.predict.self_ms": per_pass_ms("swap.predict", own=True),
    }
    qstate = [(s, o) for _, s, o in inside if s.name.startswith("qstate.")]
    m["qstate.calls"] = len(qstate) / passes
    m["qstate.self_ms"] = 1e3 * sum(o for _, o in qstate) / passes

    mle = by_name.get("tomography.mle_reconstruct", [])
    m["tomography.mle_reconstruct.calls"] = len(mle) / passes
    m["tomography.mle_reconstruct.ms_p50"] = ms("tomography.mle_reconstruct", 0.5)
    m["tomography.mle_reconstruct.ms_p90"] = ms("tomography.mle_reconstruct", 0.9)
    m["tomography.mle_reconstruct.iterations_p50"] = _quantile(
        [float(s.extra["iterations"]) for s, _ in mle], 0.5
    )
    m["tomography.mle_reconstruct.failures"] = sum("error" in s.extra for s, _ in mle) / passes
    boot = by_name.get("tomography.bootstrap_errors", [])
    boot_s = sum(s.duration for s, _ in boot)
    boot_idx = {i for i, s, _ in inside if s.name == "tomography.bootstrap_errors"}
    mle_in_boot = sum(s.duration for s, _ in mle if s.parent in boot_idx)
    m["tomography.bootstrap_errors.resamples_per_s"] = (
        sum(s.extra.get("resamples", 0) for s, _ in boot) / boot_s if boot_s > 0 else 0.0
    )
    m["tomography.bootstrap_errors.mle_share"] = mle_in_boot / boot_s if boot_s > 0 else 0.0

    sims = by_name.get("mc.simulate", [])
    for topology in ("swap", "hbt_xx", "hom"):
        chosen = [s for s, _ in sims if s.extra.get("topology") == topology]
        busy = sum(s.duration for s in chosen)
        m[f"mc.simulate.mperiods_per_s.{topology}"] = (
            sum(s.extra["periods"] for s in chosen) / busy / 1e6 if busy > 0 else 0.0
        )
    m["mc.simulate.cpu_s"] = sum(s.extra.get("cpu_s", 0.0) for s, _ in sims) / passes
    m["mc.simulate.chunks"] = sum(s.extra.get("chunks", 0) for s, _ in sims) / passes
    m["mc.simulate.workers"] = float(max((s.extra.get("workers", 0) for s, _ in sims), default=0))
    capacity = sum(s.duration * s.extra.get("workers", 1) for s, _ in sims)
    m["mc.simulate.parallel_eff"] = (
        sum(s.extra.get("cpu_s", 0.0) for s, _ in sims) / capacity if capacity > 0 else 0.0
    )
    m["mc.fourfold_coincidences.ms"] = per_pass_ms("mc.fourfold_coincidences")
    pairs = 0.0
    for short in ("g2_histogram", "hom_histogram"):
        name = f"mc.{short}"
        m[f"{name}.s"] = per_pass_ms(name) / 1e3
        m[f"{name}.pairs"] = sum(s.extra.get("pairs", 0) for s, _ in by_name.get(name, ())) / passes
        pairs += m[f"{name}.pairs"]
    m["mc.pairs.bytes_computed"] = PAIR_BYTES * pairs
    return m


def simulate_rate(spans: list[Span], window: tuple[float, float]) -> float:
    """Mperiods per second of simulate over every topology inside ``window``."""
    chosen = [
        s for s in spans if s.name == "mc.simulate" and window[0] <= s.start and s.end <= window[1]
    ]
    busy = sum(s.duration for s in chosen)
    return sum(s.extra["periods"] for s in chosen) / busy / 1e6 if busy > 0 else 0.0
