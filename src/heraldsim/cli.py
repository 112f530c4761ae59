"""Command-line entry point.

Subcommands map one-to-one onto the experiment drivers:

    heraldsim g2           trigger-beam pair-delay correlation
    heraldsim sweep-delay  adapted-mode two-photon weight vs delay
    heraldsim sweep-fixed  fixed-mode photon weights vs delay
    heraldsim fock-panels  four analysis-mode reconstructions at one delay
    heraldsim end-to-end   clicks -> pairs -> quadratures -> tomography
    heraldsim reconstruct  tomography of an existing samples CSV

Shared flags: --config (JSON file), --seed, --out, --samples.  On success
a short JSON summary goes to stdout and files land in the output
directory; on failure a machine-readable {"error": {...}} JSON goes to
stderr and the exit code is 1.  That holds for every library error and
bad input file, and for a count too large to allocate.  Warnings raised
before a failure travel inside that object as its "warnings" list, so
stderr holds it alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

from . import experiments


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, metavar="U64", help="override rng_seed")
    parser.add_argument("--out", metavar="DIR", help="override output directory")
    parser.add_argument(
        "--samples", type=int, metavar="N", help="override samples_per_point"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Simulate and analyze time-separated heralding experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "g2": "simulate the trigger beam and histogram its pair-delay correlation",
        "sweep-delay": "two-photon weight in the adapted mode versus herald delay",
        "sweep-fixed": "photon weights in the fixed first-trigger mode versus delay",
        "fock-panels": "reconstruct the state in four analysis modes at one delay",
        "end-to-end": "full pipeline from click simulation to per-bin tomography",
        "reconstruct": "maximum-likelihood tomography of a quadrature CSV",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        if name == "fock-panels":
            cmd.add_argument(
                "--delay-ns", type=float, default=40.0, metavar="NS",
                help="herald delay for the panels (default 40)",
            )
        if name == "reconstruct":
            cmd.add_argument("samples_csv", help="CSV with header x[,theta_rad[,delta_t_ns]]")
        _add_common(cmd)
    return parser


def _load_config(args: argparse.Namespace) -> experiments.ExperimentConfig:
    config = (
        experiments.load_config(args.config)
        if args.config
        else experiments.ExperimentConfig()
    )
    overrides = {}
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.samples is not None:
        overrides["samples_per_point"] = args.samples
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        # ValueError covers HeraldSimError, json.JSONDecodeError and numpy's
        # refusal of a count beyond its largest dimension; MemoryError is a
        # count it cannot allocate
        try:
            summary = _run(args)
        except (ValueError, OSError, MemoryError) as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            if caught:
                error["warnings"] = [str(w.message) for w in caught]
            print(json.dumps({"error": error}), file=sys.stderr)
            return 1
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    print(json.dumps(summary, indent=2))
    return 0


def _run(args: argparse.Namespace) -> dict:
    config = _load_config(args)
    if args.command == "g2":
        return experiments.run_g2(config)
    if args.command == "sweep-delay":
        rows = experiments.run_delay_sweep(config)
        return {"n_points": len(rows), "rows": rows}
    if args.command == "sweep-fixed":
        return {"n_points": len(experiments.run_fixed_mode_sweep(config))}
    if args.command == "fock-panels":
        panels = experiments.run_fock_panels(config, args.delay_ns)
        return {
            name: {
                "probs": panel["reconstruction"]["probs"][:3],
                "analytic": panel["analytic_probs"],
            }
            for name, panel in panels.items()
        }
    if args.command == "end-to-end":
        report = experiments.end_to_end(config)
        return {key: report[key] for key in ("n_clicks", "n_pairs", "n_bins", "n_bins_reconstructed")}
    if args.command == "reconstruct":
        return experiments.reconstruct_samples(args.samples_csv, config)
    raise AssertionError(args.command)  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
