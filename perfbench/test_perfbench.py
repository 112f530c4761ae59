"""Tests of the benchmark itself: wrappers, span arithmetic, output checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Probe, Span, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# wrappers


def test_wrapped_call_returns_the_unwrapped_result():
    from heraldsim import experiments, homodyne, tomo

    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    plain = homodyne.sample_quadratures(rho, 3000, 7)
    plain_ml = tomo.ml_diagonal(plain, tomo.MLConfig(cutoff=3))
    t = Tracer()
    _, restore = tracing.install(t)
    try:
        traced = experiments.sample_quadratures(rho, 3000, 7)
        traced_ml = experiments.ml_diagonal(traced, tomo.MLConfig(cutoff=3))
    finally:
        restore()
    assert traced.dtype == plain.dtype and np.array_equal(traced, plain)
    assert np.array_equal(traced_ml.probs, plain_ml.probs)
    assert traced_ml.iterations == plain_ml.iterations
    assert traced_ml.log_likelihood == plain_ml.log_likelihood
    assert t.counters["homodyne.quad_samples"] == 3000
    assert t.counters["tomo.em_iterations"] == plain_ml.iterations
    # ml_diagonal builds its POVM through the patched tomo global
    names = [s.name for s in t.spans]
    assert names == ["homodyne.quad_sample", "tomo.ml", "tomo.povm"]
    assert t.spans[2].parent == 1
    assert experiments.sample_quadratures is homodyne.sample_quadratures


def test_wrapper_passes_objects_and_exceptions_through():
    t = Tracer()
    sentinel = object()
    assert t.wrap(lambda: sentinel, "x")() is sentinel

    def boom():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        t.wrap(boom, "y")()
    assert [s.name for s in t.spans] == ["x", "y"]
    assert all(s.end >= s.start for s in t.spans)


def test_absent_names_are_reported_not_fatal():
    probes = (
        Probe("heraldsim.experiments", "no_such_function", "gone"),
        Probe("heraldsim.no_such_module", "f", "gone"),
        Probe("heraldsim.experiments", "g2_histogram", "clicks.g2_hist"),
    )
    absent, restore = tracing.install(Tracer(), probes)
    restore()
    assert absent == ["heraldsim.experiments.no_such_function", "heraldsim.no_such_module.f"]
    plain = [{"wall_s": 1.0}]
    traced = [{"wall_s": 1.5, "trace": {"self_s": {}, "top_level_s": 0.0, "counters": {}, "absent": absent}}]
    metrics = run.per_layer_metrics(plain, traced)
    assert metrics["trace.absent"] == 2
    assert metrics["clicks.field_calls"] == 0 and metrics["clicks.field_s"] == 0.0
    assert metrics["experiments.self_s"] == 1.5
    assert metrics["trace.overhead_s"] == 0.5


def test_counter_that_cannot_read_the_result_is_reported_not_fatal():
    t = Tracer()
    wrapped = t.wrap(lambda n: [n], "x", {"x.len": lambda r, b: len(r), "x.bad": lambda r, b: r.shape})
    assert wrapped(3) == [3] and wrapped(4) == [4]
    assert t.counters == {"x.len": 2} and t.broken == {"x.bad"}


def test_traced_artifacts_are_byte_identical(tmp_path):
    from heraldsim import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"delays_ns": [0.0, 20.0], "samples_per_point": 3000}))
    argv = ["sweep-delay", "--config", str(config), "--seed", "3", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    t = Tracer()
    absent, restore = tracing.install(t)
    try:
        assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    finally:
        restore()
    plain = workloads.artifact_sha256(tmp_path / "plain")
    traced = workloads.artifact_sha256(tmp_path / "traced")
    # the manifest records the output directory, which differs here
    plain.pop("delay_sweep/manifest.json")
    traced.pop("delay_sweep/manifest.json")
    assert plain == traced and plain
    assert t.counters["fock.scenes"] == 2 and t.counters["tomo.bootstrap_em_runs"] == 32


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("a", 0.0, 10.0, None),  # children cover 2 + 3
        Span("b", 1.0, 3.0, 0),  # child covers 0.5
        Span("c", 1.5, 2.0, 1),
        Span("b", 5.0, 8.0, 0),
        Span("d", 12.0, 13.0, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.5, 0.5, 3.0, 1.0])
    totals, top = tracing.layer_totals(spans)
    assert totals == pytest.approx({"a": 5.0, "b": 4.5, "c": 0.5, "d": 1.0})
    assert top == pytest.approx(11.0)
    assert sum(totals.values()) == pytest.approx(top)


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap(lambda: None, "inner")
    outer = t.wrap(lambda: inner() or inner(), "outer")
    outer()
    assert [(s.name, s.start, s.end, s.parent) for s in t.spans] == [
        ("outer", 0.0, 5.0, None),
        ("inner", 1.0, 2.0, 0),
        ("inner", 3.0, 4.0, 0),
    ]
    totals, top = tracing.layer_totals(t.spans)
    assert totals == {"outer": 3.0, "inner": 2.0} and top == 5.0


# ---------------------------------------------------------------------------
# output checks


def _ok(argv):
    return {"argv": argv, "exit": 0, "stdout": json.dumps({"n": 1.0})}


def _check(name, run_dir, results):
    return workloads.check_iteration(workloads.WORKLOADS[name], run_dir, results)


def _failures(ops):
    return [op for op in ops if not op.ok]


def _pipeline_dir(tmp_path, pull=0.5, n_samples=3000, converged=True):
    e2e = tmp_path / "out" / "end_to_end"
    e2e.mkdir(parents=True)
    rec = tmp_path / "out" / "reconstruct"
    rec.mkdir()
    bins = [
        {
            "delta_t_bin_center_ns": 2.5 + 5 * k,
            "n_pairs": 1500,
            "skipped": False,
            "reconstruction": {"probs": [0.3, 0.2, 0.5], "converged": True, "iterations": 10},
            "stderr": [0.01, 0.01, 0.01],
            "P2_pull": pull,
        }
        for k in range(2)
    ]
    (e2e / "report.json").write_text(json.dumps({"n_bins": 2, "bins": bins}))
    (e2e / "samples.csv").write_text("x,theta_rad,delta_t_ns\n0.1,0.2,3.0\n")
    (rec / "reconstruction.json").write_text(
        json.dumps({"probs": [0.25, 0.25, 0.5], "converged": converged, "n_samples": n_samples})
    )
    return [_ok(["end-to-end"]), _ok(["reconstruct"])]


def test_pipeline_check_accepts_good_artifacts(tmp_path):
    ops = _check("pipeline", tmp_path, _pipeline_dir(tmp_path))
    assert len(ops) == 4 and not _failures(ops)


def test_pipeline_check_flags_nan_in_report(tmp_path):
    results = _pipeline_dir(tmp_path)
    report = tmp_path / "out" / "end_to_end" / "report.json"
    report.write_text(report.read_text().replace('"P2_pull": 0.5', '"P2_pull": NaN', 1))
    ops = _check("pipeline", tmp_path, results)
    assert ops[0].name == "end-to-end" and "NaN" in ops[0].describe()


def test_pipeline_check_flags_nonzero_exit_and_large_pull(tmp_path):
    results = _pipeline_dir(tmp_path, pull=9.0)
    ops = _check("pipeline", tmp_path, results)
    assert [op.name for op in _failures(ops)] == ["bin 2.5 ns", "bin 7.5 ns"]
    results[1]["exit"] = 1
    assert _check("pipeline", tmp_path, results)[1].problems == ("exit 1",)
    # a command after a failed one never runs and still counts
    ops = _check("pipeline", tmp_path, [dict(results[0], exit=2)])
    assert [op.problems for op in ops] == [("exit 2",), ("not run",)]


def test_pipeline_check_flags_sample_count(tmp_path):
    ops = _check("pipeline", tmp_path, _pipeline_dir(tmp_path, n_samples=7))
    assert [op.name for op in _failures(ops)] == ["reconstruct"] and ops[1].problems


def test_nonconvergence_fails_the_operation_without_wrong_output(tmp_path):
    ops = _check("pipeline", tmp_path, _pipeline_dir(tmp_path, converged=False))
    (failed,) = _failures(ops)
    assert failed.name == "reconstruct" and failed.not_converged and not failed.problems


def test_sweep_check_flags_a_point_outside_the_pull_bound(tmp_path):
    out = tmp_path / "out" / "delay_sweep"
    out.mkdir(parents=True)
    rows = ["delta_t_ns,P2_f1_analytic,P2_f1_reconstructed,stderr", "0,0.5,0.51,0.01", "4,0.4,0.5,0.01"]
    (out / "delay_sweep.csv").write_text("\n".join(rows) + "\n")
    sweep = dataclasses.replace(workloads.WORKLOADS["sweep"], config={"delays_ns": [0.0, 4.0]})
    ops = workloads.check_iteration(sweep, tmp_path, [_ok(["sweep-delay"])])
    assert [op.ok for op in ops] == [True, True, False]
    (out / "delay_sweep.csv").write_text("\n".join(rows[:2] + ["4,0.4,nan,0.01"]) + "\n")
    ops = workloads.check_iteration(sweep, tmp_path, [_ok(["sweep-delay"])])
    assert len(ops) == 1 and not ops[0].ok


def test_trigger_check_flags_g2_zero_and_exit(tmp_path):
    out = tmp_path / "out" / "g2"
    out.mkdir(parents=True)
    (out / "g2.csv").write_text("delay_ns,g2_empirical,g2_theory\n0.25,2.0,2.0\n")
    summary = {"g2_zero": 1.99, "rms_deviation": 0.01}
    (out / "summary.json").write_text(json.dumps(summary))
    assert not _failures(_check("trigger", tmp_path, [_ok(["g2"])]))
    (out / "summary.json").write_text(json.dumps(dict(summary, g2_zero=1.5)))
    assert _failures(_check("trigger", tmp_path, [_ok(["g2"])]))
    assert _failures(_check("trigger", tmp_path, [dict(_ok(["g2"]), exit=2)]))


# ---------------------------------------------------------------------------
# the declared metrics are the computed ones


def test_benchmark_json_names_every_computed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    traced = [{"wall_s": 2.0, "trace": {"self_s": {}, "top_level_s": 1.0, "counters": {}, "absent": []}}]
    computed = set(run.per_layer_metrics([{"wall_s": 1.0}], traced))
    assert {m["name"] for m in spec["per_layer"]} == computed
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
