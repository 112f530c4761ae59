"""Workload definitions and the output checks that feed ``failed``.

Each workload is a config plus the CLI commands one iteration runs, in
order, in one process.  Every command also gets ``--config config.json
--out out --seed <seed>``, with paths relative to the iteration directory,
so two iterations at one seed write byte-identical artifacts.

An operation is one command run or one reconstructed point or bin.  It
fails on a nonzero exit, a non-finite number in its output, a failed check
below, or ``converged: false``.  All but the last make its output wrong;
an EM that stopped at its iteration limit still wrote outputs that pass
every check, so it counts as failed but not as wrong.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

# A bootstrap stderr from 16 replicates makes a pull t-distributed with
# 15 degrees of freedom; P(|t15| > 6) is about 2e-5, so a correct program
# fails this check about once in 4,000 benchmark runs of the sweep, while
# a wrong sampler, POVM or analytic curve gives pulls far beyond it.
MAX_ABS_PULL = 6.0
# g2 at the 0.25 ns bin centre is 1.998; at 4e5 clicks its counting error
# is about 0.016, and the rms over 120 bins is about 0.011.
G2_ZERO_TOL = 0.1
G2_MAX_RMS = 0.03
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Operation:
    name: str
    problems: tuple[str, ...] = ()  # missing, non-finite or out-of-bound output
    not_converged: bool = False  # the EM reported converged: false

    @property
    def ok(self) -> bool:
        return not self.problems and not self.not_converged

    def describe(self) -> str:
        return "; ".join(self.problems + (("not converged",) if self.not_converged else ()))


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    out: str  # the directory under out/ the command writes


@dataclass(frozen=True)
class Workload:
    config: dict
    commands: tuple[Command, ...]
    # (out directory, one operation per command, config) -> all operations
    check: Callable[[Path, list[Operation], dict], list[Operation]]


class _NonFinite(ValueError):
    pass


def _reject_constant(token: str):
    raise _NonFinite(f"non-finite number {token}")


def load_json(path: Path):
    """Parse JSON, rejecting NaN and Infinity tokens."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, float):
        yield obj


def read_csv(path: Path) -> list[dict[str, float]]:
    """Read a numeric CSV with a header; every field must be finite."""
    with open(path, newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    for row in rows:
        if not all(math.isfinite(v) for v in row.values()):
            raise _NonFinite(f"{path.name}: non-finite value in row {row}")
    return rows


def _artifact_problems(out: Path) -> list[str]:
    """Unreadable files and non-finite numbers under ``out``."""
    problems = []
    files = sorted(p for p in out.rglob("*") if p.is_file())
    if not files:
        problems.append(f"no files under {out.name}")
    for path in files:
        try:
            if path.suffix == ".json":
                load_json(path)
            elif path.suffix == ".csv":
                read_csv(path)
        except (ValueError, OSError) as exc:
            problems.append(f"{path.name}: {exc}")
    return problems


def artifact_sha256(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, keyed by its relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def check_iteration(workload: Workload, run_dir: Path, results: list[dict]) -> list[Operation]:
    """Every operation of one iteration, from worker.py's command results."""
    ops = []
    for entry, command in zip(results, workload.commands):
        name = command.argv[0]
        if entry["exit"] != 0:
            ops.append(Operation(name, (f"exit {entry['exit']}",)))
            continue
        problems = _artifact_problems(run_dir / "out" / command.out)
        try:
            stdout = json.loads(entry["stdout"], parse_constant=_reject_constant)
            if not all(math.isfinite(v) for v in _numbers(stdout)):
                problems.append("non-finite number in stdout")
        except ValueError as exc:
            problems.append(f"stdout: {exc}")
        ops.append(Operation(name, tuple(problems)))
    # a command after a failed one never runs, and counts as failed
    ops += [Operation(c.argv[0], ("not run",)) for c in workload.commands[len(results):]]
    return workload.check(run_dir / "out", ops, workload.config)


def _checked(op: Operation, check: Callable[[], list[str]]) -> Operation:
    """Add the problems ``check`` finds to ``op``; a missing key is one."""
    if not op.ok:
        return op
    try:
        problems = check()
    except (ValueError, KeyError, TypeError, OSError) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    return replace(op, problems=op.problems + tuple(problems))


def _probs_problems(probs: list[float]) -> list[str]:
    return [] if abs(sum(probs) - 1.0) <= PROB_SUM_TOL else [f"probs sum to {sum(probs)!r}"]


def check_trigger(out: Path, ops: list[Operation], config: dict) -> list[Operation]:
    def g2_statistics():
        summary = load_json(out / "g2" / "summary.json")
        problems = []
        if not abs(summary["g2_zero"] - 2.0) <= G2_ZERO_TOL:
            problems.append(f"g2_zero {summary['g2_zero']:.4f} not within {G2_ZERO_TOL} of 2")
        if not summary["rms_deviation"] <= G2_MAX_RMS:
            problems.append(f"rms deviation {summary['rms_deviation']:.4f} > {G2_MAX_RMS}")
        return problems

    return [_checked(ops[0], g2_statistics)]


def check_sweep(out: Path, ops: list[Operation], config: dict) -> list[Operation]:
    points: list[Operation] = []

    def one_operation_per_point():
        rows = read_csv(out / "delay_sweep" / "delay_sweep.csv")
        if [r["delta_t_ns"] for r in rows] != [float(d) for d in config["delays_ns"]]:
            return ["rows do not match the configured delays"]
        for r in rows:
            gap = abs(r["P2_f1_reconstructed"] - r["P2_f1_analytic"])
            ok = r["stderr"] > 0 and gap <= MAX_ABS_PULL * r["stderr"]
            problems = () if ok else (f"|dP2| {gap:.3g} vs stderr {r['stderr']:.3g}",)
            points.append(Operation(f"point {r['delta_t_ns']:g} ns", problems))
        return []

    sweep = _checked(ops[0], one_operation_per_point)
    return [sweep] + (points if sweep.ok else [])


def check_pipeline(out: Path, ops: list[Operation], config: dict) -> list[Operation]:
    bins: list[Operation] = []
    n_pairs = 0
    converged = True

    def one_operation_per_bin():
        nonlocal n_pairs
        report = load_json(out / "end_to_end" / "report.json")
        reconstructed = [b for b in report["bins"] if not b["skipped"]]
        for b in reconstructed:
            pull = b["P2_pull"]
            problems = _probs_problems(b["reconstruction"]["probs"])
            if not (isinstance(pull, float) and abs(pull) <= MAX_ABS_PULL):
                problems.append(f"P2_pull {pull}")
            bins.append(Operation(
                f"bin {b['delta_t_bin_center_ns']:g} ns", tuple(problems),
                not_converged=b["reconstruction"]["converged"] is False,
            ))
            n_pairs += b["n_pairs"]
        # the workload is sized so every bin reconstructs; fewer than half
        # means the click, pair or binning layers changed what reaches tomo
        if 2 * len(reconstructed) < report["n_bins"]:
            return [f"{len(reconstructed)} of {report['n_bins']} bins reconstructed"]
        return []

    def reconstruction_matches():
        nonlocal converged
        recon = load_json(out / "reconstruct" / "reconstruction.json")
        converged = recon["converged"] is not False
        problems = _probs_problems(recon["probs"])
        if recon["n_samples"] != n_pairs:
            problems.append(f"{recon['n_samples']} samples, expected {n_pairs}")
        return problems

    e2e = _checked(ops[0], one_operation_per_bin)
    if not e2e.ok:
        return [e2e, ops[1]]
    recon = _checked(ops[1], reconstruction_matches)
    return [e2e, replace(recon, not_converged=not converged)] + bins


WORKLOADS: dict[str, Workload] = {
    # why each workload was chosen: BENCHMARK.json and README.md
    "trigger": Workload(
        # 4 field segments of 4 M samples
        config={"g2_n_events": 400_000},
        commands=(Command(("g2",), "g2"),),
        check=check_trigger,
    ),
    "sweep": Workload(
        # the default sweep: 23 delays, 1e5 samples per point
        config={"delays_ns": [float(d) for d in range(0, 45, 2)]},
        commands=(Command(("sweep-delay",), "delay_sweep"),),
        check=check_sweep,
    ),
    "pipeline": Workload(
        # 7 field segments, about 23 k pairs in 13 bins of 5 ns, each well
        # above the reconstruction threshold
        config={
            "end_to_end_duration_s": 0.014,
            "delta_t_bin_ns": 5.0,
            "min_pairs_per_bin": 500,
        },
        commands=(
            Command(("end-to-end",), "end_to_end"),
            Command(("reconstruct", "out/end_to_end/samples.csv"), "reconstruct"),
        ),
        check=check_pipeline,
    ),
}
