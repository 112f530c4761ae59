#!/usr/bin/env python3
"""heraldsim benchmark: one closed-loop client runs CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {trigger,sweep,pipeline} --seed N \
        --seconds S --trace {0,1}

Each iteration starts one workload process (``worker.py``), which imports
heraldsim from ``src/``, loads the workload config and runs the workload's
CLI commands with a seed drawn from ``--seed``; the next iteration starts
when it has ended.  Outputs are checked after every iteration.

--trace 0 repeats untraced iterations for about ``--seconds`` and prints
the end-to-end metrics (medians over iterations).  --trace 1 runs pairs of
one untraced and one traced iteration at the same seed, requires their
artifacts to be byte-identical, and prints the per-layer metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is the full record (environment, per-iteration numbers
and artifact sha256s), which is also written under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PROBES
from workloads import WORKLOADS, artifact_sha256, check_iteration

HERE = Path(__file__).resolve().parent
MIN_ITERATIONS = 3
# two pairs, run in both orders, so the tracing overhead is not one sample
MIN_PAIRS = 2
SETUP_PROBES = 3
# every workload process must end by then, so the run ends within 180 s
HARD_LIMIT_S = 165.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer time metric -> span name in tracing.PROBES (self time)
LAYER_TIMES = {
    "clicks.field_s": "clicks.field",
    "clicks.thinning_s": "clicks.thinning",
    "clicks.coincidence_s": "clicks.coincidence",
    "clicks.g2_hist_s": "clicks.g2_hist",
    "homodyne.trace_synth_s": "homodyne.trace_synth",
    "homodyne.joint_sampler_s": "homodyne.joint_sampler",
    "homodyne.project_s": "homodyne.project",
    "homodyne.quad_sample_s": "homodyne.quad_sample",
    "tomo.ml_s": "tomo.ml",
    "tomo.bootstrap_s": "tomo.bootstrap",
    "tomo.povm_s": "tomo.povm",
    "fock.build_s": "fock.build",
    "fock.loss_s": "fock.loss",
    "fock.reduce_s": "fock.reduce",
    "modes.s": "modes",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool, seconds: int):
        self.root = root
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.seconds = seconds
        self.started = time.monotonic()
        self.src = root / "src"
        self.dir = root / ".perfbench_runs" / f"{workload}-seed{seed}-trace{int(trace)}"
        self.blas_threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        for var in BLAS_THREAD_VARS:
            self.env[var] = str(self.blas_threads)
        self.rng = random.Random(f"{workload}:{seed}")
        self.versions: dict = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, label: str, commands: list[list[str]], traced: bool) -> tuple[Path, dict]:
        """Run one workload process in its own directory; return its result."""
        run_dir = self.dir / label
        run_dir.mkdir(parents=True)
        (run_dir / "config.json").write_text(json.dumps(self.workload.config))
        spec = run_dir / "spec.json"
        result_path = run_dir / "result.json"
        spec_data = {"src": str(self.src), "config": "config.json", "commands": commands, "trace": traced}
        spec.write_text(json.dumps(spec_data))
        timeout = HARD_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise BenchError(f"no time left for {label} within {HARD_LIMIT_S:g} s")
        with open(run_dir / "stderr.txt", "w") as err:
            spawned_at = repr(time.monotonic())
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), spec.name, result_path.name, spawned_at],
                cwd=run_dir, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"workload process {label} still running at {HARD_LIMIT_S:g} s") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not result_path.is_file():
            tail = (run_dir / "stderr.txt").read_text()[-2000:]
            raise BenchError(f"workload process {label} exited {code}:\n{tail}")
        result = json.loads(result_path.read_text())
        self.versions = result["versions"]
        return run_dir, result

    def iteration(self, label: str, seed: int, traced: bool) -> dict:
        commands = [
            list(cmd.argv) + ["--config", "config.json", "--out", "out", "--seed", str(seed)]
            for cmd in self.workload.commands
        ]
        run_dir, result = self.spawn(label, commands, traced)
        ops = check_iteration(self.workload, run_dir, result["commands"])
        result["label"] = label
        result["seed"] = seed
        result["attempted"] = len(ops)
        result["failures"] = [f"{op.name}: {op.describe()}" for op in ops if not op.ok]
        result["wrong"] = sum(1 for op in ops if op.problems)
        result["sha256"] = artifact_sha256(run_dir / "out")
        for entry in result["commands"]:
            del entry["stdout"]
        return result

    def keep_going(self, done: int, minimum: int, last_s: float) -> bool:
        # start another iteration if at least half of it fits in the time
        # left, so a run lasts about --seconds whatever the iteration length
        if done < minimum:
            return True
        return self.elapsed() + 0.5 * last_s <= self.seconds

    def setup_probes(self) -> list[float]:
        return [self.spawn(f"setup-{k}", [], False)[1]["setup_s"] for k in range(SETUP_PROBES)]

    def run(self) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        plain, traced, pairs = [], [], []
        setup = [] if self.trace else self.setup_probes()
        last = 0.0
        while self.keep_going(len(plain), MIN_PAIRS if self.trace else MIN_ITERATIONS, last):
            t0 = time.monotonic()
            seed = self.rng.randrange(2**32)
            k = len(plain)
            if not self.trace:
                plain.append(self.iteration(f"iter-{k}", seed, False))
            else:
                # alternate which side runs first so drift does not bias the overhead
                order = (False, True) if k % 2 == 0 else (True, False)
                runs = {t: self.iteration(f"iter-{k}-{'traced' if t else 'plain'}", seed, t) for t in order}
                plain.append(runs[False])
                traced.append(runs[True])
                pairs.append(runs[False]["sha256"] == runs[True]["sha256"])
            last = time.monotonic() - t0
        setup += [r["setup_s"] for r in plain + traced]
        iterations = plain + traced
        attempted = sum(r["attempted"] for r in iterations)
        failed = sum(len(r["failures"]) for r in iterations)
        wrong = sum(r["wrong"] for r in iterations)
        identical = all(pairs)
        record = {
            "workload": self.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "environment": self.environment(),
            "config": self.workload.config,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "wrong_outputs": wrong,
            "iteration_count": len(plain),
            "iterations": [{k: v for k, v in r.items() if k != "versions"} for r in iterations],
            "setup_samples_s": setup,
            "traced_artifacts_identical": identical if self.trace else None,
        }
        if self.trace:
            record["metrics"] = per_layer_metrics(plain, traced)
        else:
            record["metrics"] = {
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                "setup_s": statistics.median(setup),
            }
        # a non-converged EM fails its operation but leaves correct outputs
        record["correct"] = wrong == 0 and identical
        return record

    def environment(self) -> dict:
        return {
            "git_sha": git_sha(self.root),
            "src_sha256": tree_sha256(self.src),
            **{k: self.versions.get(k) for k in ("python", "numpy", "scipy", "heraldsim")},
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": self.blas_threads,
            "blas_thread_vars": list(BLAS_THREAD_VARS),
            "seed": self.seed,
        }


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over traced iterations; overhead is traced minus untraced wall."""
    rows = []
    for r in traced:
        t = r["trace"]
        row = {name: t["self_s"].get(span, 0.0) for name, span in LAYER_TIMES.items()}
        # a layer that was never called, or whose names are absent, counts zero
        row.update({name: 0 for probe in PROBES for name in probe.counters})
        row.update(t["counters"])
        clicks = t["counters"].get("clicks.clicks", 0)
        row["clicks.pair_yield"] = t["counters"].get("clicks.pairs", 0) / clicks if clicks else 0.0
        row["experiments.self_s"] = r["wall_s"] - t["top_level_s"]
        row["trace.wall_s"] = r["wall_s"]
        row["trace.absent"] = len(t["absent"])
        rows.append(row)
    names = rows[0].keys()
    metrics = {name: statistics.median(row[name] for row in rows) for name in names}
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    )
    return metrics


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tree_sha256(src: Path) -> str:
    """One hash over the relative paths and bytes of every .py file under src."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "heraldsim" / "__init__.py").is_file():
            raise BenchError(f"no heraldsim source under {root / 'src'}; run from the repository root")
        if not 0 <= args.seed < 2**64:
            raise BenchError(f"seed must lie in [0, 2**64), got {args.seed}")
        units = declared_metrics(root, bool(args.trace))
        record = Runner(root, args.workload, args.seed, bool(args.trace), args.seconds).run()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(record["metrics"]))
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    (root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for name, unit in units.items():
        print(f"{args.workload:9s} {name:28s} {record['metrics'][name]:.6g} {unit}", file=sys.stderr)
    print(
        f"{args.workload:9s} {record['iteration_count']} {'pairs' if args.trace else 'iterations'}; "
        f"failed {record['failed']} of {record['attempted']} operations",
        file=sys.stderr,
    )
    for r in record["iterations"]:
        for failure in r["failures"]:
            print(f"perfbench: {r['label']} (seed {r['seed']}): {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
