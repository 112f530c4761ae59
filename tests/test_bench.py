"""The pair summary of scripts/bench.py, on hand-made perfbench results."""

from __future__ import annotations

import sys
from pathlib import Path

# bench.py imports its git helpers from check_identity.py beside it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench  # noqa: E402


def run(wall, clicks, failed=0, correct=True):
    return {
        "seed": 0,
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {"wall_s": wall, "clicks": clicks},
    }


PAIRS = [
    {"base": run(4.0, 10), "head": run(2.0, 12)},
    {"base": run(5.0, 10), "head": run(3.0, 10)},
    {"base": run(3.0, 10), "head": run(3.0, 9, failed=1, correct=False)},
    {"base": run(6.0, 10), "head": run(7.0, 11)},
]


def test_wins_follow_the_better_direction():
    summary = bench.summarize(PAIRS, {"wall_s": "lower", "clicks": "higher"})
    wall, clicks = summary["metrics"]["wall_s"], summary["metrics"]["clicks"]
    # a tie counts for neither side
    assert (wall["head_won"], wall["base_won"]) == (2, 1)
    assert (clicks["head_won"], clicks["base_won"]) == (2, 1)


def test_quartiles_per_side():
    summary = bench.summarize(PAIRS, {"wall_s": "lower"})
    wall = summary["metrics"]["wall_s"]
    assert wall["base"] == {"median": 4.5, "q1": 3.75, "q3": 5.25}
    assert wall["head"]["median"] == 3.0
    assert bench.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def test_failures_and_correctness_per_side():
    summary = bench.summarize(PAIRS, {"wall_s": "lower"})
    assert summary["pairs"] == 4
    assert summary["base"] == {"attempted": 40, "failed": 0, "all_correct": True}
    assert summary["head"] == {"attempted": 40, "failed": 1, "all_correct": False}
