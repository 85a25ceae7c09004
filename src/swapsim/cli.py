"""Command-line front end.

Subcommands map to figure-level recipes: gate-width prediction curves,
tomography reconstruction from count files, Monte Carlo stream generation,
autocorrelation, interference-visibility and delay-scan analyses, and a
summary report of the headline quantities. Every artifact embeds the config
hash, seed and tool version so outputs can be reproduced byte for byte.
Only the four commands that simulate import the Monte Carlo (``mc``).
Each subcommand takes only the options it reads, after its name (one before
it is a usage error that names it); ``--format`` belongs to the four that
write tables. ``main`` resolves the output directory and format against
``[output]`` once. Exit codes: 1 bad input, 2 MLE non-convergence (and
argparse usage errors), 3 I/O.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .config import HISTOGRAM_BIN_PS, ConfigError, McError, RunConfig, default_config, load_config
from .interference import InterferenceError, bsm_povm
from .params import atomic_file, config_hash, json_text
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
    MeasurementSetting,
    MleConvergenceError,
    TomographyError,
    born_probabilities,
    reconstruct_with_errors,
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
    # Each value is computed from its index, so rounding does not accumulate;
    # "or 0.0" turns a -0.0 into 0.0.
    while (v := start + len(values) * step) <= bound:
        values.append(round(v, 9) or 0.0)
    return values


def _provenance(config: RunConfig) -> dict:
    return {"config_hash": config_hash(config), "seed": config.output.seed, "version": __version__}


def _emit_table(
    path: Path, columns: list[str], rows: list[list], provenance: dict, fmt: str, rho_ab: list | None = None
) -> None:
    if fmt == "json":
        payload = {"provenance": provenance, "columns": columns, "rows": rows}
        if rho_ab is not None:
            payload["rho_ab"] = rho_ab
        text = json_text(payload)
    else:
        lines = [f"# {k} = {v}" for k, v in provenance.items()]
        lines.append(",".join(columns))
        # Rows hold Python scalars: numpy 2 reprs a numpy float as "np.float64(...)".
        lines.extend(",".join(map(repr, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    with atomic_file(path.with_suffix("." + fmt)) as handle:
        handle.write(text)


def _cmd_swap_predict(args, config: RunConfig) -> int:
    gates = _parse_range(args.gates) if args.gates else [config.bsm.gate_ps]
    curve = predict(config.source, config.bsm, gates, config.apparatus.bsm_delay_offset_ps)
    columns = ["gate_ps", "i_eff", "fidelity", "s_value", "herald_prob", "rate_factor"]
    rows = [list(row) for row in zip(curve.gate_ps, *(getattr(curve, c).tolist() for c in columns[1:]))]
    out = args.out_dir / "swap_predict"
    rho_ab = [density_payload(rho, curve.labels) for rho in curve.rho] if args.format == "json" else None
    _emit_table(out, columns, rows, _provenance(config), args.format, rho_ab)
    print(f"wrote {out.with_suffix('.' + args.format)}")
    return 0


def _cmd_tomo(args, config: RunConfig) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise TomographyError(f"run CSV {args.input} is not UTF-8 text: {exc}") from exc
    run = run_from_csv(text)
    if args.settings and len(run.settings) != args.settings:
        raise ConfigError(
            f"run has {len(run.settings)} settings, expected {args.settings}"
        )
    resamples = args.bootstrap if args.bootstrap is not None else config.tomography.bootstrap_resamples
    rho, errors = reconstruct_with_errors(run, resamples, rng_seed=config.output.seed)
    payload = {
        "provenance": _provenance(config),
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
    out = args.out_dir / "tomo_reconstruct.json"
    with atomic_file(out) as handle:
        handle.write(json_text(payload))
    print(f"wrote {out}")
    return 0


def _cmd_mc_run(args, config: RunConfig) -> int:
    from .mc import Run, write_stream
    run = Run(config.apparatus, config.output.seed, args.duration)  # checks the input before any directory is made
    out = args.out_dir / "stream.bin"
    counts = write_stream(run, out)
    print(f"wrote {out} ({counts})")
    return 0


def _cmd_g2(args, config: RunConfig) -> int:
    from .mc import Run, g2_histogram
    line = args.line
    apparatus = dataclasses.replace(config.apparatus, topology=f"hbt_{line}")
    result = g2_histogram(Run(apparatus, config.output.seed, args.duration), bin_ps=args.bin_ps)
    prov = _provenance(config)
    prov["g2_zero"] = result.g2_zero
    rows = [list(row) for row in zip(result.bin_centers_ps.tolist(), result.counts.tolist())]
    _emit_table(args.out_dir / f"g2_{line}", ["bin_center_ps", "counts"], rows, prov, args.format)
    print(f"g2_zero = {result.g2_zero:.6f}")
    return 0


def _cmd_hom(args, config: RunConfig) -> int:
    from .mc import hom_histogram, simulate_runs
    base = dataclasses.replace(config.apparatus, topology="hom")
    variants = [{"hom_copolarized": True}, {"hom_copolarized": False}]
    # Each run is generated as hom_histogram reads it, one after the other.
    runs = simulate_runs(base, args.duration, variants, config.output.seed, lambda run: run)
    result = hom_histogram(tuple(runs), bin_ps=args.bin_ps)
    prov = _provenance(config)
    prov["visibility"] = result.visibility
    for name, hist in (("co", result.copolarized), ("cross", result.crossed)):
        rows = [list(row) for row in zip(hist.bin_centers_ps.tolist(), hist.counts.tolist())]
        _emit_table(args.out_dir / f"hom_{name}", ["bin_center_ps", "counts"], rows, prov, args.format)
    print(f"visibility = {result.visibility:.4f}")
    return 0


def _cmd_fourfold_scan(args, config: RunConfig) -> int:
    from .mc import fourfold_coincidences, simulate_runs
    delays = _parse_range(args.delays)
    gate = config.apparatus.fourfold_gate_ps(args.gate)
    curve = predict(config.source, config.bsm, [gate] * len(delays), delays)
    settings = [MeasurementSetting("D", bob) for bob in ("D", "A")]
    variants = [
        {"bsm_delay_offset_ps": delay, "alice_setting": "D", "bob_setting": s.projector_b}
        for delay in delays
        for s in settings
    ]
    fourfolds = partial(fourfold_coincidences, gate_ps=gate)
    counts = simulate_runs(config.apparatus, args.duration_per_point, variants, config.output.seed, fourfolds)
    # Each delay's D/D and D/A shares of its four-folds are the Born
    # probabilities of the state heralded there, over their sum; chi2 is
    # Pearson's over the delays that have counts.
    rows, chi2, points = [], 0.0, 0
    for k, delay in enumerate(delays):
        pair = counts[2 * k : 2 * k + 2]
        probs = born_probabilities(curve[k].rho_ab, settings).clip(0.0)
        total = sum(pair)
        points += total > 0
        for s, n, share in zip(settings, pair, (probs / probs.sum()).tolist()):
            rows.append([delay, s.projector_b == "D", float(curve.i_eff[k]), share, n])
            chi2 += (n - total * share) ** 2 / (total * share) if share and total else (math.inf if n else 0.0)
    prov = _provenance(config)
    prov.update(chi2=chi2, chi2_points=points)
    columns = ["delay_ps", "copolarized", "i_eff", "predicted_share", "fourfolds"]
    _emit_table(args.out_dir / "fourfold_scan", columns, rows, prov, args.format)
    print(f"wrote scan with {len(rows)} points")
    return 0


def _cmd_report(args, config: RunConfig) -> int:
    ungated, gated = predict(config.source, config.bsm, [math.inf, 47.0], config.apparatus.bsm_delay_offset_ps)
    rho4 = compose(emit_pair(config.source, 1), emit_pair(config.source, 2))
    ideal = herald(rho4, bsm_povm(1.0, config.bsm.convention))
    control = control_no_heralding(rho4)
    f_mix = fidelity_mixed(control, maximally_mixed(("X1", "X2")))
    check = classical_bound_check(gated)
    payload = {
        "provenance": _provenance(config),
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
    out = args.out_dir / "report.json"
    with atomic_file(out) as handle:
        handle.write(json_text(payload))
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
    table = argparse.ArgumentParser(add_help=False, parents=[common])
    table.add_argument(
        "--format", choices=("csv", "json"), default=argparse.SUPPRESS, help="table output format"
    )
    parser = argparse.ArgumentParser(
        prog="swapsim", description="Entanglement-swapping simulator and analysis toolkit"
    )
    # The subcommands' options default to unset; these fill in, so a command without --format has format None.
    parser.set_defaults(config=None, seed=None, out_dir=None, format=None)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("swap-predict", parents=[table], help="fidelity/CHSH versus BSM gate width")
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

    p = sub.add_parser("g2", parents=[table], help="pulsed autocorrelation of one emission line")
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--line", choices=("x", "xx"), default="xx")
    p.add_argument("--bin-ps", type=float, default=HISTOGRAM_BIN_PS)
    p.set_defaults(func=_cmd_g2)

    p = sub.add_parser("hom", parents=[table], help="two-photon interference visibility")
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--bin-ps", type=float, default=HISTOGRAM_BIN_PS)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("fourfold-scan", parents=[table], help="four-fold coincidences versus mutual delay")
    p.add_argument("--delays", required=True, help="delay range in ps, start:stop:step")
    p.add_argument("--gate", type=float, help="BSM gate in ps (default [bsm] gate_ps; inf: one MZI delay)")
    p.add_argument("--duration-per-point", type=float, required=True)
    p.set_defaults(func=_cmd_fourfold_scan)

    p = sub.add_parser("report", parents=[common], help="summary of the headline quantities")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # Only -h and --version (or an abbreviation of --help or --version) come
    # before the subcommand, and argparse acts on either where it meets it.
    first = argv[0].split("=")[0] if argv else ""
    if first.startswith("-") and first != "-h" and not any(o.startswith(first) for o in ("--help", "--version")):
        parser.error(f"{first} goes after the subcommand, as in: swapsim COMMAND {first} ...")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            config = dataclasses.replace(config, output=dataclasses.replace(config.output, seed=args.seed))
        # Not folded into config.output: the config hash would then depend on where artifacts go.
        args.out_dir = Path(args.out_dir or config.output.out_dir)
        args.format = args.format or config.output.format
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
