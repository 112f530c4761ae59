"""The statistics of scripts/calibrate.py on a synthetic estimator of known
spread, and a two-seed, one-point run of each mode."""

from __future__ import annotations

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from heraldsim.experiments import ExperimentConfig, run_fixed_mode_sweep

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "calibrate.py"
spec = importlib.util.spec_from_file_location("calibrate", SCRIPT)
calibrate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(calibrate)

SMALL = ExperimentConfig(delays_ns=(10.0,), samples_per_point=4000)


def test_pull_stats_by_hand():
    estimates = [0.5, 0.84, 0.2, 0.5]
    stats = calibrate.pull_stats(estimates, [0.1, 0.1, 0.2, 0.05], truth=0.5)
    # pulls 0, 3.4, -1.5, 0
    assert stats["closed_form"] == 0.5 and stats["mean"] == pytest.approx(0.51)
    assert stats["sd"] == pytest.approx(np.std(estimates, ddof=1))
    assert stats["mean_stderr"] == pytest.approx(0.1125)
    assert stats["pull_sd"] == pytest.approx(np.std([0.0, 3.4, -1.5, 0.0], ddof=1))
    assert (stats["beyond_1"], stats["beyond_2"], stats["beyond_3"]) == (0.5, 0.25, 0.25)
    assert stats["max_abs_pull"] == pytest.approx(3.4) and stats["pulls"] == 4


def test_zero_stderr_is_an_infinite_pull():
    pulls = calibrate.pulls_of([0.1, 0.2, 0.4], [0.0, 0.1, 0.2], truth=0.0)
    assert pulls.tolist() == [math.inf, 2.0, 2.0]
    stats = calibrate.pooled_stats(pulls[1:])
    assert stats["max_abs_pull"] == 2.0 and stats["pull_sd"] == 0.0


@pytest.mark.parametrize("scale", [1.0, 0.5, 2.0])
def test_estimator_of_known_sd(scale):
    # estimates truth + sd * z with a stderr of sd / scale: the pulls have
    # sd `scale` and the normal tail fractions beyond 1, 2 and 3 of it
    rng = np.random.default_rng(11)
    truth, sd, m = 0.3, 0.004, 200_000
    stats = calibrate.pull_stats(truth + sd * rng.standard_normal(m), np.full(m, sd / scale), truth)
    assert stats["sd"] == pytest.approx(sd, rel=0.01)
    assert stats["mean"] == pytest.approx(truth, abs=4 * sd / math.sqrt(m))
    assert stats["pull_sd"] == pytest.approx(scale, rel=0.01)
    for k in (1, 2, 3):
        tail = math.erfc(k / scale / math.sqrt(2.0))
        assert stats[f"beyond_{k}"] == pytest.approx(tail, abs=4 * math.sqrt(tail / m) + 1e-5)


def test_point_mode_smoke():
    report = calibrate.point_mode(SMALL, ["f1"], [0, 1])
    assert report["seeds"] == [0, 1]
    (point,) = report["points"]["f1"]
    assert point["delta_t_ns"] == 10.0 and len(point["weights"]) == SMALL.tomo_cutoff + 1
    p2 = point["weights"][2]
    assert p2["pulls"] == 2 and p2["mean_stderr"] > 0.0 and p2["closed_form"] > 0.4
    # P0, P1 and P2 of f1 at 10 ns lie above 0.01; two heralds put no
    # weight on n >= 3
    assert set(report["pooled"]["f1"]) == {
        "P0 interior", "P1 interior", "P2 interior", "P3 boundary", "P4 boundary", "P5 boundary"
    }


def test_point_mode_is_the_sweep(tmp_path):
    # point mode at config seed s refits the sweep's own points at seed s
    (point,) = calibrate.point_mode(SMALL, ["g1"], [3, 4])["points"]["g1"]
    rows = [run_fixed_mode_sweep(dataclasses.replace(SMALL, rng_seed=s), tmp_path)[0] for s in (3, 4)]
    for n in range(3):
        weight = point["weights"][n]
        assert weight["closed_form"] == rows[0][f"P{n}_analytic"]
        assert weight["mean"] == np.mean([r[f"P{n}_reconstructed"] for r in rows])
        assert weight["mean_stderr"] == np.mean([r[f"P{n}_stderr"] for r in rows])


def test_driver_mode_smoke():
    report = calibrate.driver_mode(SMALL, [0, 1])
    assert [entry["seed"] for entry in report["per_seed"]] == [0, 1]
    assert report["passed"] == sum(entry["worst"] <= 1.0 for entry in report["per_seed"])
    assert all(entry["n"] in (0, 1, 2) for entry in report["per_seed"])
