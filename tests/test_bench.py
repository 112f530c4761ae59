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


def pairs_of(base: list[float], head: list[float]) -> list[dict]:
    return [{"base": run(b, 10), "head": run(h, 10)} for b, h in zip(base, head)]


BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # quartile spread 0.175


def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    clear = [b - 1.0 for b in BASE]
    gap_in_spread = [b - 0.1 for b in BASE]  # wins all ten, by less than the spread
    eight_wins = clear[:8] + [b + 1.0 for b in BASE[8:]]
    nine_wins = clear[:9] + [BASE[9]]  # a tie counts for neither side
    verdicts = {
        label: bench.summarize(pairs_of(BASE, head), {"wall_s": "lower"})["metrics"]["wall_s"]["gain"]
        for label, head in (("clear", clear), ("gap", gap_in_spread), ("eight", eight_wins), ("nine", nine_wins))
    }
    assert verdicts == {"clear": True, "gap": False, "eight": False, "nine": True}
    # for a higher-is-better metric the same numbers are a loss, not a gain
    loss = bench.summarize(pairs_of(BASE, clear), {"wall_s": "higher"})["metrics"]["wall_s"]
    assert (loss["gain"], loss["base_won"]) == (False, 10)


def test_regressed_past_the_relative_bound():
    def regressed(head, direction="lower", bounds=None):
        bounds = {"wall_s": 0.25} if bounds is None else bounds
        return bench.summarize(pairs_of(BASE, head), {"wall_s": direction}, bounds)["metrics"]["wall_s"]["regressed"]

    assert regressed([1.3 * b for b in BASE]) is True  # median 30 % worse
    assert regressed([1.2 * b for b in BASE]) is False  # 20 % worse, inside the bound
    assert regressed([0.5 * b for b in BASE]) is False  # better
    assert regressed([0.7 * b for b in BASE], "higher") is True  # 30 % lower where higher is better
    assert regressed([1.3 * b for b in BASE], bounds={}) is None  # no bound, no verdict
