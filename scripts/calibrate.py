#!/usr/bin/env python3
"""Seed-ensemble calibration of the reconstructed weights and their stderr.

Point mode reruns one sweep's fits at M config seeds and asks whether
each stderr describes the spread of its estimate.  For a config, an
analysis mode and a list of delays, ``experiments._sweep_fits`` makes the
fits that ``_sweep`` makes at each config seed, every seed and delay of
the mode in one EM batch.
Per (delay, n) it reports the closed form, the mean estimate, the
empirical sd, the mean stderr, the sd of the pulls (estimate - closed
form) / stderr, the fraction of |pull| beyond 1, 2 and 3 and the largest
|pull|.  It also pools the pulls per (mode, n), split into interior points
(true P_n >= 0.01) and boundary points.

Driver mode runs ``run_fixed_mode_sweep`` at M config seeds and reports
the fraction of seeds at which acceptance 6's predicate holds (every
|reconstructed - analytic| <= 3 stderr for n = 0, 1, 2) and each seed's
worst point.  The predicate's other clause, the analytic half-decay
delay, does not depend on the seed.

Usage:
    PYTHONPATH=src python scripts/calibrate.py point [--mode f1 --mode g1]
        [--delays NS ...] [--seeds M] [--first-seed S] [--config PATH] [--json PATH]
    PYTHONPATH=src python scripts/calibrate.py driver [--seeds M] [--first-seed S]
        [--config PATH] [--json PATH]

A table goes to stdout; ``--json`` also writes every number.  At the
default config, 23 delays x 2 modes x 60 seeds and 40 fixed-mode sweeps
each take minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from heraldsim.experiments import ExperimentConfig, _sweep_fits, load_config, run_fixed_mode_sweep

# a true weight at or above this is an interior point; below, the
# estimate sits near the P_n >= 0 boundary
INTERIOR = 0.01


def pulls_of(estimates: np.ndarray, stderrs: np.ndarray, truth: float) -> np.ndarray:
    """(estimate - truth) / stderr per fit; a zero stderr gives an infinite pull."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.asarray(estimates, float) - truth) / np.asarray(stderrs, float)


def pull_stats(estimates: np.ndarray, stderrs: np.ndarray, truth: float) -> dict:
    """Spread of M estimates of one weight against its closed form ``truth``."""
    estimates, stderrs = np.asarray(estimates, float), np.asarray(stderrs, float)
    return {
        "closed_form": float(truth),
        "mean": float(estimates.mean()),
        "sd": float(estimates.std(ddof=1)),
        "mean_stderr": float(stderrs.mean()),
        **pooled_stats(pulls_of(estimates, stderrs, truth)),
    }


def pooled_stats(pulls: np.ndarray) -> dict:
    """Size, sd, tail fractions and largest magnitude of a set of pulls."""
    pulls = np.asarray(pulls, float)
    size = pulls.size
    magnitude = np.abs(pulls)
    return {
        "pulls": int(size),
        "pull_sd": float(pulls.std(ddof=1)) if size > 1 else math.nan,
        **{f"beyond_{k}": float(np.count_nonzero(magnitude > k) / size) for k in (1, 2, 3)},
        "max_abs_pull": float(magnitude.max()),
    }


def point_mode(config: ExperimentConfig, modes: list[str], seeds: list[int]) -> dict:
    """Per (mode, delay, n) statistics over ``seeds`` and the pooled pulls
    per (mode, n), interior and boundary."""
    dim = config.tomo_cutoff + 1
    points: dict[str, list[dict]] = {mode: [] for mode in modes}
    pooled: dict[str, dict[str, list[np.ndarray]]] = {mode: {} for mode in modes}
    for mode in modes:
        analytic, fits = _sweep_fits(config, mode, seeds)
        for k, delta_ns in enumerate(config.delays_ns):
            probs = np.array([per_seed[k].probs for per_seed in fits])
            stderr = np.array([per_seed[k].stderr for per_seed in fits])
            truth = np.zeros(dim)
            truth[: analytic[k].probs.size] = analytic[k].probs
            per_n = []
            for n in range(dim):
                per_n.append({"n": n, **pull_stats(probs[:, n], stderr[:, n], truth[n])})
                side = "interior" if truth[n] >= INTERIOR else "boundary"
                pulls = pulls_of(probs[:, n], stderr[:, n], truth[n])
                pooled[mode].setdefault(f"P{n} {side}", []).append(pulls)
            points[mode].append({"delta_t_ns": delta_ns, "weights": per_n})
        print(f"== mode {mode} done", file=sys.stderr, flush=True)
    summary = {
        mode: {key: pooled_stats(np.concatenate(parts)) for key, parts in sorted(groups.items())}
        for mode, groups in pooled.items()
    }
    return {"seeds": seeds, "points": points, "pooled": summary}


def worst_check(rows: list[dict]) -> tuple[float, float, int]:
    """Acceptance 6's worst |reconstructed - analytic| / (3 stderr) over a
    fixed-mode sweep, with its delay and photon number."""
    worst = (0.0, math.nan, -1)
    for row in rows:
        for n in range(3):
            gap = abs(row[f"P{n}_reconstructed"] - row[f"P{n}_analytic"])
            limit = 3.0 * row[f"P{n}_stderr"]
            ratio = gap / limit if limit > 0 else math.inf
            if ratio > worst[0]:
                worst = (ratio, row["delta_t_ns"], n)
    return worst


def driver_mode(config: ExperimentConfig, seeds: list[int]) -> dict:
    """Acceptance 6's predicate over ``run_fixed_mode_sweep`` at each seed."""
    per_seed = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            rows = run_fixed_mode_sweep(dataclasses.replace(config, rng_seed=seed), tmp)
            ratio, delta_ns, n = worst_check(rows)
            per_seed.append({"seed": seed, "worst": ratio, "delta_t_ns": delta_ns, "n": n,
                             "passes": ratio <= 1.0})
            print(f"== seed {seed}: worst {ratio:.3f} at P{n}, {delta_ns:g} ns",
                  file=sys.stderr, flush=True)
    passed = sum(entry["passes"] for entry in per_seed)
    return {"seeds": seeds, "passed": passed, "pass_fraction": passed / len(seeds),
            "per_seed": per_seed}


def print_point_tables(report: dict) -> None:
    print(f"{'mode':<5}{'delay':>7}{'n':>3}{'closed':>10}{'mean':>10}{'sd':>9}{'stderr':>9}"
          f"{'pull sd':>9}{'>1':>7}{'>2':>7}{'>3':>7}{'max':>8}")
    for mode, points in report["points"].items():
        for point in points:
            for w in point["weights"]:
                print(f"{mode:<5}{point['delta_t_ns']:>7g}{w['n']:>3}{w['closed_form']:>10.5f}"
                      f"{w['mean']:>10.5f}{w['sd']:>9.5f}{w['mean_stderr']:>9.5f}"
                      f"{w['pull_sd']:>9.3f}{w['beyond_1']:>7.3f}{w['beyond_2']:>7.3f}"
                      f"{w['beyond_3']:>7.3f}{w['max_abs_pull']:>8.3g}")
    print(f"\n{'mode':<5}{'weight':<14}{'pulls':>6}{'pull sd':>9}{'>1':>7}{'>2':>7}{'>3':>7}{'max':>8}")
    for mode, groups in report["pooled"].items():
        for key, s in groups.items():
            print(f"{mode:<5}{key:<14}{s['pulls']:>6}{s['pull_sd']:>9.3f}{s['beyond_1']:>7.3f}"
                  f"{s['beyond_2']:>7.3f}{s['beyond_3']:>7.3f}{s['max_abs_pull']:>8.3g}")


def print_driver_table(report: dict) -> None:
    for entry in report["per_seed"]:
        print(f"seed {entry['seed']:>4}: worst {entry['worst']:.3f} at P{entry['n']}, "
              f"{entry['delta_t_ns']:g} ns{'' if entry['passes'] else '  FAILS'}")
    print(f"\n{report['passed']} of {len(report['seeds'])} seeds pass acceptance 6's predicate")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=["point", "driver"])
    parser.add_argument("--config", metavar="PATH", help="JSON config (default: the defaults)")
    parser.add_argument("--mode", action="append", choices=["g1", "g2", "f1", "f2"],
                        help="analysis mode of point mode; repeatable (default f1 and g1)")
    parser.add_argument("--delays", nargs="+", type=float, metavar="NS",
                        help="delays of point mode (default: the config's)")
    parser.add_argument("--seeds", type=int, default=60, metavar="M", help="config seeds (default 60)")
    parser.add_argument("--first-seed", type=int, default=0, metavar="S",
                        help="seeds S, ..., S + M - 1 (default 0)")
    parser.add_argument("--json", metavar="PATH", help="also write every number here")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2: an sd needs two estimates")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.delays:
        config = dataclasses.replace(config, delays_ns=tuple(args.delays))
    if "f2" in (args.mode or []) and 0.0 in config.delays_ns:
        sys.exit("calibrate.py: f2 is not defined at zero delay, where the modes coincide")
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    if args.kind == "point":
        report = point_mode(config, args.mode or ["f1", "g1"], seeds)
        print_point_tables(report)
    else:
        report = driver_mode(config, seeds)
        print_driver_table(report)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
