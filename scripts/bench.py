#!/usr/bin/env python3
"""Benchmark two commits against each other in alternated pairs.

Both commits are exported with ``git archive`` into a temporary directory
(removed afterwards), so each side runs only its committed files.  For
every workload W that BENCHMARK.json lists, pair k of PAIRS runs

    python3 perfbench/run.py --workload W --seed SEED+k --seconds S --trace 0

with S the benchmark's ``run_seconds``, once in each checkout, base first
in even pairs and head first in odd ones, because a shared host drifts
over minutes.  The JSON written to
``--out`` holds, per workload and end-to-end metric, each side's median
and quartiles over the pairs, the number of pairs each side won (ties
count for neither), its verdict, the operations attempted and failed,
whether every run reported ``correct``, and every run's numbers; plus the
machine, the versions perfbench recorded and both shas.  The verdict is
two flags: ``gain`` when head won at least 9 in 10 of the pairs and its
median beats base's by more than base's quartile spread, and
``regressed`` when head's median is worse than base's by more than the
metric's relative ``bound`` in BENCHMARK.json.

Usage:
    python scripts/bench.py BASE [HEAD] --out BENCH_<n>.json

HEAD defaults to HEAD; for uncommitted work pass the commit that
``git stash create`` prints (after ``git add`` of new files).  Stdlib
only.  A pair takes about 2 x (S + 10) s; TMPDIR picks where the
checkouts go.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from check_identity import ROOT, export, rev_parse

PAIRS = 10
SEED = 1  # seed of pair 0; pair k uses SEED + k
GAIN_SHARE = 0.9  # share of the pairs a gain must win


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run; its result line plus the environment it recorded."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench {workload} in {checkout.name} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    environment = json.loads(lines[-2])["record"]["environment"]
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "versions": {k: environment.get(k) for k in ("python", "numpy", "scipy", "heraldsim")},
    }


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's median and quartiles, the pairs it won and
    the verdict.

    ``pairs`` holds {"base": run, "head": run} entries; ``better`` maps a
    metric name to "lower" or "higher", and ``bounds`` to the largest
    relative worsening of head's median that is not a regression
    (``regressed`` is None for a metric without a bound).
    """
    bounds = bounds or {}
    metrics = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        b, h = quartiles(base), quartiles(head)
        head_won = sum(sign * (y - x) < 0 for x, y in zip(base, head))
        worse_by = sign * (h["median"] - b["median"])
        bound = bounds.get(name)
        metrics[name] = {
            "better": direction,
            "base": b,
            "head": h,
            "head_won": head_won,
            "base_won": sum(sign * (y - x) > 0 for x, y in zip(base, head)),
            "gain": head_won >= GAIN_SHARE * len(pairs) and -worse_by > b["q3"] - b["q1"],
            "regressed": None if bound is None else worse_by > bound * abs(b["median"]),
        }
    sides = {
        side: {
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs),
            "all_correct": all(p[side]["correct"] for p in pairs),
        }
        for side in ("base", "head")
    }
    return {"pairs": len(pairs), "metrics": metrics, **sides}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="base commit")
    parser.add_argument("head", nargs="?", default="HEAD", help="head commit (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    shas = {side: rev_parse(rev) for side, rev in (("base", args.base), ("head", args.head))}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    report = {
        "base_sha": shas["base"],
        "head_sha": shas["head"],
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
        },
        "settings": {"pairs": PAIRS, "seconds": seconds, "seed": SEED},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="heraldsim-bench-") as tmp:
        checkouts = {side: export(sha, Path(tmp) / side) for side, sha in shas.items()}
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for k in range(PAIRS):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                pair = {}
                for side in order:
                    print(f"== {workload} pair {k} {side}", file=sys.stderr, flush=True)
                    pair[side] = run_once(checkouts[side], workload, SEED + k, seconds)
                pairs.append(pair)
            report["versions"] = {side: pairs[-1][side]["versions"] for side in ("base", "head")}
            report["workloads"][workload] = {**summarize(pairs, better, bounds), "runs": pairs}
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:9s} {name:12s} base {m['base']['median']:.4g} "
                  f"head {m['head']['median']:.4g}  head won {m['head_won']}/{entry['pairs']}  "
                  f"gain {m['gain']}  regressed {m['regressed']}",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
