#!/usr/bin/env python3
"""Check that two commits write the same artifacts, file by file.

Both commits are exported with ``git archive`` into a temporary
directory (removed afterwards), so each side runs only its committed
files.  In each checkout, with the same relative
output paths, this runs

    default   scripts/reproduce_figures.py            (default config)
    seed43    scripts/reproduce_figures.py --seed 43
    pipeline  end-to-end + reconstruct at the perfbench ``pipeline``
              config, seed 7
    selection end-to-end + reconstruct at SELECTION_CONFIG, seed 7: dead
              time 0, and many acceptance windows across field chunks
    trigger   g2 at TRIGGER_CONFIG, seed 11: the perfbench ``trigger``
              event count, with 0.6 ns bins, whose last edge lies one ulp
              below g2_max_delay_ns
    calibrate scripts/calibrate.py point --seeds 2 --delays 0 10 30
              (default config), its report as calibrate.json

and keeps each run's standard output as ``<run>.stdout``: the CLI's JSON
summaries at full precision, or calibrate's table.  It then prints the
sha256 of every file under each run and of each stdout file, and exits 1
on any difference that is not listed with ``--expect-diff``.  A PATH
given there matches every file whose path ends in it
(``end_to_end/samples.csv`` matches that file in all four runs that
write it).  For an expected CSV difference the table also counts the
changed rows and gives the largest change per column; for an expected
JSON file or JSON stdout difference it counts the changed values and
gives the largest change per key path, its list indices written ``[*]``
(``bins[*].stderr[*]``), or a key found on one side only.

Usage:
    python scripts/check_identity.py BASE [HEAD] [--expect-diff PATH ...]

Stdlib only.  The default and seed-43 runs take several minutes per
commit; TMPDIR picks where the checkouts go.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = "identity_out"
PIPELINE_SEED = 7
# 42.5 k pairs over 31 field chunks, with no dead time between them
SELECTION_CONFIG = {"end_to_end_duration_s": 0.004, "dead_time_ns": 0.0, "min_pairs_per_bin": 50}
# 4e5 clicks over 62 field chunks; a delay of exactly 60 ns passes g2's
# filter and falls outside every bin
TRIGGER_CONFIG = {"g2_n_events": 400_000, "g2_bin_ns": 0.6}
TRIGGER_SEED = 11
# one heraldsim CLI call: what perfbench's worker and reproduce_figures.py do
CLI = "import sys; from heraldsim.cli import main; sys.exit(main(sys.argv[1:]))"


def rev_parse(rev: str) -> str:
    """The full sha of commit ``rev``."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """Write the files of commit ``sha`` under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def _pipeline_config() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return WORKLOADS["pipeline"].config


def write_configs(configs: Path) -> None:
    """The config of each end-to-end and g2 run, as ``<run>.json`` in ``configs``."""
    for name, config in (
        ("pipeline", _pipeline_config()), ("selection", SELECTION_CONFIG), ("trigger", TRIGGER_CONFIG)
    ):
        (configs / f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")


def runs(configs: Path) -> dict[str, list[list[str]]]:
    """The commands of each run, relative to a checkout's root; the
    end-to-end and g2 runs read their configs from ``configs``."""
    py = sys.executable

    def end_to_end(name: str) -> list[list[str]]:
        out = f"{OUT}/{name}"
        common = ["--config", str(configs / f"{name}.json"), "--out", out, "--seed", str(PIPELINE_SEED)]
        return [
            [py, "-c", CLI, "end-to-end", *common],
            [py, "-c", CLI, "reconstruct", f"{out}/end_to_end/samples.csv", *common],
        ]

    return {
        "default": [[py, "scripts/reproduce_figures.py", "--out", f"{OUT}/default"]],
        "seed43": [[py, "scripts/reproduce_figures.py", "--out", f"{OUT}/seed43", "--seed", "43"]],
        "pipeline": end_to_end("pipeline"),
        "selection": end_to_end("selection"),
        "trigger": [[py, "-c", CLI, "g2", "--config", str(configs / "trigger.json"), "--out",
                     f"{OUT}/trigger", "--seed", str(TRIGGER_SEED)]],
        # the harness that refits the sweeps through their fit path
        "calibrate": [[py, "scripts/calibrate.py", "point", "--seeds", "2", "--delays", "0", "10",
                       "30", "--json", f"{OUT}/calibrate.json"]],
    }


def produce(checkout: Path, configs: Path) -> dict[str, str]:
    """Run every command in ``checkout``; sha256 of each file it wrote and
    of each run's stdout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = checkout / OUT
    out.mkdir()
    for name, commands in runs(configs).items():
        print(f"== {checkout.name}: {name}", file=sys.stderr, flush=True)
        with open(out / f"{name}.stdout", "wb") as stdout:
            for argv in commands:
                subprocess.run(argv, cwd=checkout, env=env, check=True, stdout=stdout)
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def expected(path: str, expect_diff: list[str]) -> bool:
    return any(path == e or path.endswith("/" + e) for e in expect_diff)


def compare(
    base: dict[str, str], head: dict[str, str], expect_diff: list[str]
) -> tuple[list[tuple[str, str, str, str]], bool]:
    """Rows (path, base sha, head sha, status) over the union of files, and
    whether every difference is expected.  A file on one side only is a
    difference too."""
    rows = []
    ok = True
    for path in sorted(set(base) | set(head)):
        a, b = base.get(path, "-"), head.get(path, "-")
        if a == b:
            status = "same"
        elif expected(path, expect_diff):
            status = "differs (expected)"
        else:
            status = "DIFFERS"
            ok = False
        rows.append((path, a, b, status))
    return rows, ok


def csv_changes(a: Path, b: Path) -> str:
    """Changed rows of two numeric CSVs with one header, and the largest
    change per column."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if ra[:1] != rb[:1] or len(ra) != len(rb):
        return "header or row count differs"
    header, changed = ra[0], 0
    largest = dict.fromkeys(header, 0.0)
    for row_a, row_b in zip(ra[1:], rb[1:]):
        if row_a == row_b:
            continue
        changed += 1
        for name, x, y in zip(header, row_a, row_b):
            largest[name] = max(largest[name], abs(float(x) - float(y)))
    moved = ", ".join(f"{k} {v:.1e}" for k, v in largest.items() if v > 0.0) or "none"
    return f"{changed} of {len(ra) - 1} rows differ; largest change: {moved}"


def json_documents(path: Path) -> list:
    """The JSON values in a file, one after another: a .json file holds one,
    a run's stdout one per CLI call."""
    text, decoder, docs, at = path.read_text(), json.JSONDecoder(), [], 0
    while text[at:].strip():
        at += len(text[at:]) - len(text[at:].lstrip())
        value, at = decoder.raw_decode(text, at)
        docs.append(value)
    return docs


def json_leaves(value, path: str = "") -> dict:
    """Every leaf of a JSON value by its key path, as ``bins[4].stderr[2]``."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else str(key), item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{k}]", item) for k, item in enumerate(value)]
    else:
        return {path: value}
    return {leaf: v for key, item in items for leaf, v in json_leaves(item, key).items()}


def json_changes(a: Path, b: Path) -> str:
    """Changed leaves of two JSON files (or JSON stdouts) and, per key path
    with its list indices as ``[*]``, the largest change."""
    da, db = json_documents(a), json_documents(b)
    la, lb = (json_leaves(d[0] if len(d) == 1 else d) for d in (da, db))
    missing = object()
    changed, largest = 0, {}
    for path in sorted(set(la) | set(lb), key=lambda p: (re.sub(r"\[\d+\]", "[*]", p), p)):
        x, y = la.get(path, missing), lb.get(path, missing)
        if type(x) is type(y) and x == y:
            continue
        changed += 1
        key = re.sub(r"\[\d+\]", "[*]", path)
        if missing in (x, y):
            largest[key] = "only in " + ("head" if x is missing else "base")
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            previous = largest.get(key, 0.0)
            largest[key] = max(previous, float(abs(x - y))) if isinstance(previous, float) else previous
        else:
            largest[key] = f"{json.dumps(x)} -> {json.dumps(y)}"
    moved = ", ".join(
        f"{k} {v:.1e}" if isinstance(v, float) else f"{k} {v}" for k, v in largest.items()
    ) or "none"
    return f"{changed} of {len(set(la) | set(lb))} values differ; largest change: {moved}"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="base commit")
    parser.add_argument("head", nargs="?", default="HEAD", help="head commit (default HEAD)")
    parser.add_argument(
        "--expect-diff", nargs="+", action="extend", default=[], metavar="PATH",
        help="files allowed to differ (each matched as a path suffix); repeatable",
    )
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    shas = {side: rev_parse(rev) for side, rev in (("base", args.base), ("head", args.head))}
    tmp = Path(tempfile.mkdtemp(prefix="check_identity-"))
    write_configs(tmp)
    hashes: dict[str, dict[str, str]] = {}
    try:
        for side, sha in shas.items():
            hashes[side] = produce(export(sha, tmp / side), tmp)
        rows, ok = compare(hashes["base"], hashes["head"], args.expect_diff)
        print(f"base {shas['base']}\nhead {shas['head']}\n")
        print(f"{'file':<44} {'base':<12} {'head':<12} status")
        for path, a, b, status in rows:
            note = status
            if status == "differs (expected)" and "-" not in (a, b):
                changes = {".csv": csv_changes, ".json": json_changes, ".stdout": json_changes}
                describe = changes.get(Path(path).suffix)
                if describe:
                    try:
                        note += ": " + describe(tmp / "base" / OUT / path, tmp / "head" / OUT / path)
                    except json.JSONDecodeError:  # a stdout that is a table, as calibrate's
                        pass
            print(f"{path:<44} {a[:12]:<12} {b[:12]:<12} {note}")
        same = sum(status == "same" for *_, status in rows)
        print(f"\n{same} of {len(rows)} files identical; {'OK' if ok else 'UNEXPECTED DIFFERENCES'}")
        return 0 if ok else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
