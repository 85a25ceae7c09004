"""Command-line front end.

Subcommands map to figure-level recipes: gate-width prediction curves,
tomography reconstruction from count files, Monte Carlo stream generation,
autocorrelation, interference-visibility and delay-scan analyses, and a
summary report of the headline quantities. Every artifact embeds the config
hash, seed and tool version so outputs can be reproduced byte for byte.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, default_config, load_config
from .interference import InterferenceError, bsm_povm
from .mc import (
    McError,
    fit_double_exponential,
    fourfold_scan,
    g2_histogram,
    hom_histogram,
    simulate,
    write_stream,
)
from .params import config_hash
from .qstate import QStateError, density_payload, fidelity_mixed, maximally_mixed
from .source import SourceError, emit_pair
from .swap import (
    SwapError,
    classical_bound_check,
    compose,
    control_no_heralding,
    herald,
    predict,
)
from .tomography import (
    MleConvergenceError,
    TomographyError,
    bootstrap_errors,
    mle_reconstruct,
    run_from_csv,
)
from .qstate import BellKind, bell_state, fidelity_pure, horodecki_s

EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
_MAX_RANGE_VALUES = 1 << 20  # values of one start:stop:step range


def _parse_range(text: str) -> list[float]:
    """start:stop:step inclusive range."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ConfigError(f"invalid range {text!r}")
    bound = stop + 1e-9
    # v + step > v for every v in the range once step exceeds half an ulp of its largest magnitude.
    if step <= math.ulp(max(abs(start), abs(bound))) / 2:
        raise ConfigError(f"range step {step!r} does not advance {text!r}")
    if (bound - start) / step >= _MAX_RANGE_VALUES:
        raise ConfigError(f"range {text!r} gives more than {_MAX_RANGE_VALUES} values")
    values = []
    v = start
    while v <= bound:
        values.append(round(v, 9))
        v += step
    return values


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".swapsim-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _provenance(config: RunConfig, seed: int) -> dict:
    return {"config_hash": config_hash(config), "seed": seed, "version": __version__}


def _emit_table(
    path: Path, columns: list[str], rows: list[list], provenance: dict, fmt: str, rho_ab: list | None = None
) -> None:
    if fmt == "json":
        payload = {"provenance": provenance, "columns": columns, "rows": rows}
        if rho_ab is not None:
            payload["rho_ab"] = rho_ab
        _atomic_write(path.with_suffix(".json"), json.dumps(payload, indent=2))
        return
    lines = [f"# {k} = {v}" for k, v in provenance.items()]
    lines.append(",".join(columns))
    # Rows hold Python scalars: numpy 2 reprs a numpy float as "np.float64(...)".
    lines.extend(",".join(map(repr, row)) for row in rows)
    _atomic_write(path.with_suffix(".csv"), "\n".join(lines) + "\n")


def _cmd_swap_predict(args, config: RunConfig) -> int:
    gates = _parse_range(args.gates) if args.gates else [config.bsm.gate_ps]
    temporal = config.bsm.temporal_model()
    curve = predict(
        config.source,
        temporal,
        gates,
        intrinsic_limit=config.bsm.intrinsic_limit,
        convention=config.bsm.convention,
    )
    columns = ["gate_ps", "i_eff", "fidelity", "s_value", "herald_prob", "rate_factor"]
    rows = [list(row) for row in zip(curve.gate_ps, *(getattr(curve, c).tolist() for c in columns[1:]))]
    out = Path(args.out_dir or config.output.out_dir) / "swap_predict"
    fmt = args.format or config.output.format
    rho_ab = [density_payload(rho, curve.labels) for rho in curve.rho] if fmt == "json" else None
    _emit_table(out, columns, rows, _provenance(config, config.output.seed), fmt, rho_ab)
    print(f"wrote {out.with_suffix('.' + fmt)}")
    return 0


def _cmd_tomo(args, config: RunConfig) -> int:
    if args.action != "reconstruct":
        raise ConfigError(f"unknown tomo action {args.action!r}")
    run = run_from_csv(Path(args.input).read_text())
    if args.settings and len(run.settings) != args.settings:
        raise ConfigError(
            f"run has {len(run.settings)} settings, expected {args.settings}"
        )
    rho = mle_reconstruct(run, strict=True)
    resamples = args.bootstrap or config.tomography.bootstrap_resamples
    errors = bootstrap_errors(run, resamples=resamples, rng_seed=config.output.seed)
    payload = {
        "provenance": _provenance(config, config.output.seed),
        "rho": density_payload(rho.matrix, rho.labels),
        "fidelity_phiplus": fidelity_pure(rho, bell_state(BellKind.PHI_PLUS)),
        "fidelity_psiplus": fidelity_pure(rho, bell_state(BellKind.PSI_PLUS)),
        "s_value": horodecki_s(rho),
        "errors": {
            "fidelity_phiplus": errors.fidelity_phi_plus_std,
            "fidelity_psiplus": errors.fidelity_psi_plus_std,
            "s_value": errors.s_value_std,
            "resamples": errors.resamples,
            "failures": errors.failures,
        },
    }
    out = Path(args.out_dir or config.output.out_dir) / "tomo_reconstruct.json"
    _atomic_write(out, json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return 0


def _cmd_mc_run(args, config: RunConfig) -> int:
    stream = simulate(config.apparatus, args.duration, config.output.seed)
    out = Path(args.out_dir or config.output.out_dir) / "stream.bin"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_stream(stream, out)
    print(f"wrote {out} ({stream.counts()})")
    return 0


def _cmd_g2(args, config: RunConfig) -> int:
    line = args.line
    apparatus = dataclasses.replace(config.apparatus, topology=f"hbt_{line}")
    seed = config.output.seed
    stream = simulate(apparatus, args.duration, seed)
    result = g2_histogram(stream, bin_ps=args.bin_ps)
    prov = _provenance(config, seed)
    prov["g2_zero"] = result.g2_zero
    rows = [list(row) for row in zip(result.bin_centers_ps.tolist(), result.counts.tolist())]
    out = Path(args.out_dir or config.output.out_dir) / f"g2_{line}"
    _emit_table(out, ["bin_center_ps", "counts"], rows, prov, args.format or config.output.format)
    print(f"g2_zero = {result.g2_zero:.6f}")
    return 0


def _cmd_hom(args, config: RunConfig) -> int:
    seed = config.output.seed
    base = dataclasses.replace(config.apparatus, topology="hom")
    co = simulate(dataclasses.replace(base, hom_copolarized=True), args.duration, seed)
    cross = simulate(dataclasses.replace(base, hom_copolarized=False), args.duration, seed + 1)
    result = hom_histogram((co, cross), bin_ps=args.bin_ps)
    prov = _provenance(config, seed)
    prov["visibility"] = result.visibility
    fmt = args.format or config.output.format
    out_dir = Path(args.out_dir or config.output.out_dir)
    for name, hist in (("co", result.copolarized), ("cross", result.crossed)):
        rows = [list(row) for row in zip(hist.bin_centers_ps.tolist(), hist.counts.tolist())]
        _emit_table(out_dir / f"hom_{name}", ["bin_center_ps", "counts"], rows, prov, fmt)
    print(f"visibility = {result.visibility:.4f}")
    return 0


def _cmd_fourfold_scan(args, config: RunConfig) -> int:
    delays = _parse_range(args.delays)
    seed = config.output.seed
    base = config.apparatus
    rows = []
    streams = []
    for i, delay in enumerate(delays):
        for j, (a, b) in enumerate((("D", "D"), ("D", "A"))):
            cfg = dataclasses.replace(
                base, bsm_delay_offset_ps=delay, alice_setting=a, bob_setting=b
            )
            streams.append(simulate(cfg, args.duration_per_point, seed + 101 * i + j))
    points = fourfold_scan(streams, args.gate)
    for p in points:
        rows.append([p.delay_ps, p.copolarized, p.fourfolds])
    co = [p for p in points if p.copolarized]
    fits = {}
    if len(co) >= 5:
        x = np.array([p.delay_ps for p in co])
        y = np.array([float(p.fourfolds) for p in co], dtype=float)
        try:
            fit = fit_double_exponential(x, y)
            fits = {
                "amplitude": fit.amplitude,
                "center_ps": fit.center,
                "left_rate_per_ps": fit.left_rate,
                "right_rate_per_ps": fit.right_rate,
                "offset": fit.offset,
                "residual_norm": fit.residual_norm,
            }
        except McError:
            fits = {}
    prov = _provenance(config, seed)
    prov.update({f"fit_{k}": v for k, v in fits.items()})
    out = Path(args.out_dir or config.output.out_dir) / "fourfold_scan"
    _emit_table(
        out,
        ["delay_ps", "copolarized", "fourfolds"],
        rows,
        prov,
        args.format or config.output.format,
    )
    print(f"wrote scan with {len(rows)} points")
    return 0


def _cmd_report(args, config: RunConfig) -> int:
    temporal = config.bsm.temporal_model()
    intrinsic = config.bsm.intrinsic_limit
    ungated, gated = predict(
        config.source,
        temporal,
        [math.inf, 47.0],
        intrinsic_limit=intrinsic,
        convention=config.bsm.convention,
    )
    rho4 = compose(emit_pair(config.source, 1), emit_pair(config.source, 2))
    ideal = herald(rho4, bsm_povm(1.0, config.bsm.convention))
    control = control_no_heralding(rho4)
    f_mix = fidelity_mixed(control, maximally_mixed(("X1", "X2")))
    check = classical_bound_check(gated)
    payload = {
        "provenance": _provenance(config, config.output.seed),
        "i_eff_ungated": ungated.i_eff,
        "i_eff_47ps": gated.i_eff,
        "fidelity_ungated": ungated.fidelity,
        "fidelity_47ps": gated.fidelity,
        "fidelity_max": ideal.fidelity,
        "s_ungated": ungated.s_value,
        "s_47ps": gated.s_value,
        "s_max": ideal.s_value,
        "herald_prob_per_pair": ungated.herald_prob,
        "rate_factor_47ps": gated.rate_factor,
        "control_fidelity_to_mixed": f_mix,
        "witness_passed_47ps": check.witness_passed,
        "witness_margin_47ps": check.witness_margin,
        "bell_violated_47ps": check.bell_violated,
        "bell_margin_47ps": check.bell_margin,
    }
    out = Path(args.out_dir or config.output.out_dir) / "report.json"
    _atomic_write(out, json.dumps(payload, indent=2))
    for key in (
        "fidelity_ungated",
        "fidelity_47ps",
        "fidelity_max",
        "s_47ps",
        "s_max",
        "control_fidelity_to_mixed",
    ):
        print(f"{key} = {payload[key]:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="path to a sectioned or JSON config file"
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="override the configured seed"
    )
    common.add_argument("--out-dir", default=argparse.SUPPRESS, help="artifact directory")
    common.add_argument(
        "--format", choices=("csv", "json"), default=argparse.SUPPRESS, help="table output format"
    )
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Entanglement-swapping simulator and analysis toolkit",
        parents=[common],
    )
    parser.set_defaults(config=None, seed=None, out_dir=None, format=None)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("swap-predict", parents=[common], help="fidelity/CHSH versus BSM gate width")
    p.add_argument("--gates", help="gate range in ps, start:stop:step")
    p.set_defaults(func=_cmd_swap_predict)

    p = sub.add_parser("tomo", parents=[common], help="state reconstruction from a run CSV")
    p.add_argument("action", choices=("reconstruct",))
    p.add_argument("--input", required=True, help="run CSV path")
    p.add_argument("--settings", type=int, choices=(16, 36))
    p.add_argument("--bootstrap", type=int, help="bootstrap resamples")
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser("mc-run", parents=[common], help="generate a timestamp stream")
    p.add_argument("--duration", type=float, required=True, help="seconds of apparatus time")
    p.set_defaults(func=_cmd_mc_run)

    p = sub.add_parser("g2", parents=[common], help="pulsed autocorrelation of one emission line")
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--line", choices=("x", "xx"), default="xx")
    p.add_argument("--bin-ps", type=float, default=100.0)
    p.set_defaults(func=_cmd_g2)

    p = sub.add_parser("hom", parents=[common], help="two-photon interference visibility")
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--bin-ps", type=float, default=100.0)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("fourfold-scan", parents=[common], help="four-fold coincidences versus mutual delay")
    p.add_argument("--delays", required=True, help="delay range in ps, start:stop:step")
    p.add_argument("--gate", type=float, default=2000.0, help="BSM gate in ps")
    p.add_argument("--duration-per-point", type=float, required=True)
    p.set_defaults(func=_cmd_fourfold_scan)

    p = sub.add_parser("report", parents=[common], help="summary of the headline quantities")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            config = dataclasses.replace(
                config, output=dataclasses.replace(config.output, seed=args.seed)
            )
        return args.func(args, config)
    except (ConfigError, SourceError, InterferenceError, QStateError, TomographyError, McError, SwapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MleConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
