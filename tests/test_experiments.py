"""Experiment drivers and CLI: config handling, manifests, CSV schemas,
determinism, and machine-readable error reporting.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import heraldsim
from heraldsim.analytic import PhotonDistribution, g2_closed_form, two_photon_weight_lossy
from heraldsim import clicks, experiments, tomo
from heraldsim.cli import main
from heraldsim.clicks import sample_clicks, synthesize_thermal_field
from heraldsim.errors import (
    CutoffExceeded,
    DurationTooShort,
    InsufficientPairs,
    OutOfRange,
    RateTooHigh,
    ResolutionTooCoarse,
)
from heraldsim.experiments import (
    FIELD_CHUNK_SAMPLES,
    ExperimentConfig,
    _build_scene,
    _click_chunks,
    _derive_seeds,
    config_hash,
    end_to_end,
    load_config,
    reconstruct_samples,
    run_delay_sweep,
    run_fixed_mode_sweep,
    run_fock_panels,
    run_g2,
    save_config,
)
from heraldsim.fock import photon_distribution, reduce_to_mode
from heraldsim.homodyne import quadrature_values, sample_quadratures
from heraldsim.modes import ModeFunction, extend_orthonormal_basis

from conftest import ETA, GAMMA
from test_homodyne import KS_CRIT_1PC, ks_statistic

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
LOSSY_TWO_PHOTON = np.array([0.0576, 0.3648, 0.5776])
LOSSY_FIXED_40NS = (0.239964881592, 0.759923910115, 0.000111208292825)

TINY = ExperimentConfig(
    delays_ns=(0.0, 10.0, 40.0),
    samples_per_point=4000,
    rng_seed=99,
)

E2E_CFG = dataclasses.replace(
    TINY,
    end_to_end_duration_s=1e-3,
    min_pairs_per_bin=40,
    rng_seed=17,
)


@pytest.fixture(scope="module")
def delay_sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    return out, run_delay_sweep(TINY, out)


@pytest.fixture(scope="module")
def fixed_sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixed")
    return out, run_fixed_mode_sweep(TINY, out)


@pytest.fixture(scope="module")
def panels_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("panels")
    return out, run_fock_panels(TINY, 40.0, out)


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    with pytest.warns(UserWarning):
        report = end_to_end(E2E_CFG, out)
    return out, report


def write_sample_csv(path, count=5000, seed=301):
    rho = np.diag(LOSSY_TWO_PHOTON).astype(complex)
    samples = sample_quadratures(rho, count, rng_seed=seed)
    with open(path, "w") as fh:
        fh.write("x,theta_rad\n")
        for x, theta in samples:
            fh.write(f"{x:.9g},{theta:.9g}\n")
    return path


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(TINY, path)
        assert load_config(path) == TINY

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        raw = TINY.to_json_dict()
        raw["grid_dt"] = 0.2
        path.write_text(json.dumps(raw))
        with pytest.raises(OutOfRange, match="grid_dt"):
            load_config(path)

    def test_validation(self):
        with pytest.raises(OutOfRange):
            ExperimentConfig(grid_dt_ns=-0.1)
        with pytest.raises(OutOfRange):
            ExperimentConfig(eta=1.2)
        with pytest.raises(OutOfRange):
            ExperimentConfig(delays_ns=(4.0, 2.0))
        with pytest.raises(OutOfRange):
            ExperimentConfig(delays_ns=())
        with pytest.raises(OutOfRange):
            ExperimentConfig(dead_time_ns=-1.0)
        with pytest.raises(TypeError, match="bootstrap_reps"):  # no longer a knob
            ExperimentConfig(bootstrap_reps=16)
        with pytest.raises(OutOfRange, match="rng_seed"):
            ExperimentConfig(rng_seed=-1)
        with pytest.raises(OutOfRange, match="delays_ns"):
            ExperimentConfig(delays_ns=(0.0, math.nan))
        with pytest.raises(OutOfRange, match="delays_ns"):
            ExperimentConfig(delays_ns=(0.0, math.inf))
        with pytest.raises(OutOfRange, match="dead_time_ns"):
            ExperimentConfig(dead_time_ns=math.nan)
        # MLConfig's rules hold at construction, before any driver runs
        for cutoff in (1, 17):
            with pytest.raises(CutoffExceeded, match="cutoff"):
                ExperimentConfig(tomo_cutoff=cutoff)
        with pytest.raises(OutOfRange, match="n_bins"):
            ExperimentConfig(tomo_n_bins=32)

    def test_field_chunks_and_povm_bins_bounded(self):
        # rejected at construction: no field or POVM of that size is made
        with pytest.raises(OutOfRange, match="end-to-end field chunks"):
            ExperimentConfig(end_to_end_duration_s=1e6)
        with pytest.raises(OutOfRange, match="POVM bins"):
            ExperimentConfig(tomo_n_bins=2_000_000)

    def test_expected_clicks_bounded(self):
        # rejected at construction: 5e9 clicks in 7.6e5 chunks of field
        with pytest.raises(OutOfRange, match="end-to-end clicks"):
            ExperimentConfig(end_to_end_duration_s=100.0)
        with pytest.raises(OutOfRange, match="g2 clicks"):
            ExperimentConfig(g2_n_events=2 * experiments.MAX_CLICKS)
        ExperimentConfig(mean_rate_hz=1e8, end_to_end_duration_s=1.0)  # at the limit

    def test_seed_beyond_64_bits_accepted(self):
        assert ExperimentConfig(rng_seed=2**64).rng_seed == 2**64

    @pytest.mark.parametrize(
        "raw",
        [
            {"eta": "high"},
            {"delays_ns": 5},
            {"delays_ns": [0.0, "2"]},
            {"samples_per_point": 1.5},
            {"tomo_n_bins": 64.5},
            {"samples_per_point": True},
            {"eta": False},
            {"output_dir": 7},
        ],
    )
    def test_mistyped_value_rejected(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(OutOfRange, match=next(iter(raw))):
            load_config(path)

    def test_integers_fit_float_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"eta": 1, "delays_ns": [0, 2.5], "gamma_hz": 53000000}')
        config = load_config(path)
        assert config.eta == 1.0 and config.delays_ns == (0.0, 2.5)

    def test_grid(self):
        grid = ExperimentConfig().grid()
        assert grid.n_samples == 5001
        assert grid.dt == pytest.approx(0.1e-9)

    def test_hash_is_stable_and_sensitive(self):
        h = config_hash(TINY)
        assert h == config_hash(TINY)
        assert len(h) == 12
        other = dataclasses.replace(TINY, rng_seed=100)
        assert config_hash(other) != h


class TestDelaySweep:
    def test_csv_schema(self, delay_sweep_run):
        out, rows = delay_sweep_run
        lines = (out / "delay_sweep.csv").read_text().splitlines()
        assert lines[0] == "delta_t_ns,P2_f1_analytic,P2_f1_reconstructed,stderr"
        assert len(lines) == 1 + len(TINY.delays_ns)

    def test_analytic_column(self, delay_sweep_run):
        _, rows = delay_sweep_run
        assert rows[0]["P2_f1_analytic"] == pytest.approx(0.5776, abs=1e-12)
        for row in rows:
            # rows use the discrete mode overlap; closed form agrees to ~1e-4
            assert row["P2_f1_analytic"] == pytest.approx(
                two_photon_weight_lossy(row["delta_t_ns"] * 1e-9, GAMMA, ETA),
                abs=2e-4,
            )

    def test_reconstruction_tracks_analytic(self, delay_sweep_run):
        _, rows = delay_sweep_run
        for row in rows:
            tol = max(5.0 * row["stderr"], 0.05)
            assert abs(row["P2_f1_reconstructed"] - row["P2_f1_analytic"]) < tol

    def test_manifest(self, delay_sweep_run):
        out, _ = delay_sweep_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "delay_sweep"
        assert manifest["config_hash"] == config_hash(TINY)
        assert manifest["rng_seed"] == TINY.rng_seed
        assert "delay_sweep.csv" in manifest["outputs"]
        assert set(manifest["versions"]) == {"heraldsim", "numpy", "python"}

    def test_one_povm_and_em_batch_per_run(self, tmp_path, monkeypatch):
        # the run builds one POVM and fits every point's one data row in
        # one EM batch
        em_rows, povms = [], []
        em, build_povm = tomo._em, tomo.build_povm

        def counted_em(hist, pi, config):
            em_rows.append(hist.shape[0])
            return em(hist, pi, config)

        def counted_povm(*args, **kwargs):
            povms.append(args)
            return build_povm(*args, **kwargs)

        monkeypatch.setattr(tomo, "_em", counted_em)
        monkeypatch.setattr(tomo, "build_povm", counted_povm)
        run_delay_sweep(TINY, tmp_path)
        assert em_rows == [len(TINY.delays_ns)]
        assert len(povms) == 1

    def test_fits_equal_over_either_sampler(self):
        # a fit only histograms its draws, so the x values out of draw
        # order fit as the samples in draw order do, bit for bit
        rhos = []
        for delta_ns in TINY.delays_ns:
            scene = _build_scene(TINY, delta_ns * 1e-9)
            rhos.append(reduce_to_mode(scene.state, scene.modes["f1"]))
        seeds = experiments._sample_seeds(TINY.rng_seed, len(rhos))
        in_order, out_of_order = (
            tomo.ml_diagonal_batch(
                [sampler(rho, TINY.samples_per_point, seed) for rho, seed in zip(rhos, seeds)],
                TINY.ml_config(),
            )
            for sampler in (sample_quadratures, quadrature_values)
        )
        for a, b in zip(in_order, out_of_order, strict=True):
            np.testing.assert_array_equal(a.probs, b.probs)
            np.testing.assert_array_equal(a.stderr, b.stderr)
            assert (a.iterations, a.converged, a.log_likelihood) == (
                b.iterations, b.converged, b.log_likelihood
            )


def test_import_leaves_scipy_unloaded():
    # the runtime needs numpy only; scipy serves the tests
    src = str(Path(heraldsim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, heraldsim; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0


class TestFixedSweep:
    def test_csv_schema(self, fixed_sweep_run):
        out, _ = fixed_sweep_run
        header = (out / "fixed_sweep.csv").read_text().splitlines()[0]
        cols = ["delta_t_ns"]
        for n in range(3):
            cols += [f"P{n}_analytic", f"P{n}_reconstructed", f"P{n}_stderr"]
        assert header == ",".join(cols)

    def test_analytic_endpoints(self, fixed_sweep_run):
        _, rows = fixed_sweep_run
        for n in range(3):
            assert rows[0][f"P{n}_analytic"] == pytest.approx(
                LOSSY_TWO_PHOTON[n], abs=1e-12
            )
            # 40 ns point: closed-form reference within discrete-overlap drift
            assert rows[2][f"P{n}_analytic"] == pytest.approx(
                LOSSY_FIXED_40NS[n], abs=2e-4
            )

    def test_reconstruction_tracks_analytic(self, fixed_sweep_run):
        _, rows = fixed_sweep_run
        for row in rows:
            for n in range(3):
                tol = max(5.0 * row[f"P{n}_stderr"], 0.05)
                assert abs(row[f"P{n}_reconstructed"] - row[f"P{n}_analytic"]) < tol


class TestRunG2:
    CFG = dataclasses.replace(TINY, g2_n_events=50_000)

    def test_summary_and_csv(self, tmp_path):
        summary = run_g2(self.CFG, tmp_path)
        assert set(summary) >= {
            "n_clicks",
            "n_segments",
            "duration_s",
            "g2_zero",
            "max_abs_deviation",
            "rms_deviation",
        }
        assert 1.6 < summary["g2_zero"] < 2.4
        assert summary["csv"] == str(tmp_path / "g2.csv")
        header = (tmp_path / "g2.csv").read_text().splitlines()[0]
        assert header == "delay_ns,g2_empirical,g2_theory"
        delay_ns, empirical, theory = np.loadtxt(tmp_path / "g2.csv", delimiter=",", skiprows=1, unpack=True)
        assert delay_ns[0] == pytest.approx(0.25)  # the first bin center
        np.testing.assert_allclose(theory, g2_closed_form(delay_ns * 1e-9, self.CFG.gamma_hz), rtol=1e-11)
        assert empirical[0] == pytest.approx(summary["g2_zero"], rel=1e-11)
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_g2(self.CFG, a)
        run_g2(self.CFG, b)
        assert (a / "g2.csv").read_bytes() == (b / "g2.csv").read_bytes()
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        # the summary embeds the absolute csv path, which differs by design
        sa.pop("csv"), sb.pop("csv")
        assert sa == sb

    def test_peak_memory_does_not_grow_with_clicks(self, tmp_path, monkeypatch):
        # pair delays are counted chunk by chunk, so six times the clicks
        # add only the clicks within g2_max_delay_ns of the last and the
        # thinning arrays of the largest chunk; joined, the clicks would
        # cost at least 16 B each.  Small field chunks keep the two field
        # buffers from hiding them.
        monkeypatch.setattr(experiments, "FIELD_CHUNK_SAMPLES", 2**16)
        peaks, clicks = [], []
        for n_events in (50_000, 300_000):
            config = dataclasses.replace(self.CFG, g2_n_events=n_events)
            tracemalloc.start()
            try:
                summary = run_g2(config, tmp_path / str(n_events))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            clicks.append(summary["n_clicks"])
        assert peaks[1] - peaks[0] <= 2 * (clicks[1] - clicks[0])


class TestClickStream:
    def test_chunks_cover_duration(self):
        dt = TINY.field_dt_ns * 1e-9
        n_samples = 2 * FIELD_CHUNK_SAMPLES + 3
        chunks, n_chunks, duration, _ = _click_chunks(TINY, n_samples * dt)
        times = np.concatenate(list(chunks))
        assert n_chunks == 3
        assert duration == pytest.approx(n_samples * dt, rel=1e-15)
        # clicks spread over every chunk, the last included
        assert times[-1] > (n_samples - 0.01 * FIELD_CHUNK_SAMPLES) * dt

    def test_fine_grid_chunks_span_a_fresh_field(self, monkeypatch):
        # at 4 ps, 100/gamma is about 471,698.1 samples, more than one
        # FIELD_CHUNK_SAMPLES: only the whole stream must span it, so two
        # such spans come in the usual even chunks, and less still raises
        config = dataclasses.replace(TINY, field_dt_ns=0.004)
        sizes = _record_chunk_sizes(monkeypatch)
        duration = 2 * 100.0 / config.gamma_hz
        chunks, n_chunks, got, _ = _click_chunks(config, duration)
        list(chunks)
        assert n_chunks == len(sizes) == 4
        assert max(sizes) <= FIELD_CHUNK_SAMPLES
        assert got == pytest.approx(duration, abs=config.field_dt_ns * 1e-9)
        with pytest.raises(DurationTooShort):
            next(_click_chunks(config, 0.9 * 100.0 / config.gamma_hz)[0])

    def test_slow_field_chunks_stay_bounded(self, monkeypatch):
        # at 1e4 Hz, 100/gamma is 2e7 samples of 0.5 ns; chunks must still
        # hold at most FIELD_CHUNK_SAMPLES (the first one is enough to see,
        # and is never written)
        sizes = _record_chunk_sizes(monkeypatch, stop_after=1)
        with pytest.raises(_Stop):
            next(_click_chunks(dataclasses.replace(TINY, gamma_hz=1e4), 0.02)[0])
        assert len(sizes) == 1 and sizes[0] <= FIELD_CHUNK_SAMPLES

    def test_peak_memory_does_not_grow_with_duration(self):
        # the field lives one chunk at a time, and so do its clicks when
        # the caller drops them: a six times longer stream adds at most
        # its click times to the peak
        dt = TINY.field_dt_ns * 1e-9
        peaks, lengths = [], []
        for n_chunks in (2, 12):
            tracemalloc.start()
            try:
                chunks, _, _, _ = _click_chunks(TINY, n_chunks * FIELD_CHUNK_SAMPLES * dt)
                lengths.append(sum(times.size for times in chunks))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk_bytes = 16 * FIELD_CHUNK_SAMPLES  # one complex128 chunk
        assert peaks[0] < 5 * chunk_bytes
        assert peaks[1] < peaks[0] + 32 * lengths[1]

    def test_matches_per_chunk_reference(self):
        # the pipelined stream against the plain loop: make one chunk, then
        # thin it, each from its own seed
        dt = TINY.field_dt_ns * 1e-9
        n_samples = 2 * FIELD_CHUNK_SAMPLES + 3
        chunks, n_chunks, _, spare = _click_chunks(TINY, n_samples * dt)
        got = np.concatenate(list(chunks))
        assert n_chunks == 3
        seeds = _derive_seeds(TINY.rng_seed, 2 * n_chunks + 1)
        bounds = [n_samples * k // n_chunks for k in range(n_chunks + 1)]
        state, times = None, []
        for k in range(n_chunks):
            size = bounds[k + 1] - bounds[k]
            field = synthesize_thermal_field(TINY.gamma_hz, size * dt, dt, seeds[2 * k], state)
            state = field.state
            clicks = sample_clicks(field, TINY.mean_rate_hz, seeds[2 * k + 1])
            times.append(clicks.times + bounds[k] * dt)
        assert spare == seeds[-1]
        assert got.tobytes() == np.concatenate(times).tobytes()

    def test_helper_thread_is_joined(self, monkeypatch):
        dt = TINY.field_dt_ns * 1e-9
        before = threading.active_count()
        list(_click_chunks(TINY, 3 * FIELD_CHUNK_SAMPLES * dt)[0])
        assert threading.active_count() == before
        # thinning chunk 0 raises while chunk 1 is still being drawn
        drawn = []
        original = clicks._innovations

        def slow_innovations(rng, out, mu_dt, e_prev):
            if drawn:
                time.sleep(0.2)
            e_last = original(rng, out, mu_dt, e_prev)
            drawn.append(threading.current_thread())
            return e_last

        monkeypatch.setattr(clicks, "_innovations", slow_innovations)

        def too_fast(field, mean_rate, rng_seed, **kwargs):
            # rate * dt = 0.5; _click_chunks refuses that before any draw,
            # so here only the thinning sees it
            return clicks.sample_clicks(field, 1e9, rng_seed, **kwargs)

        monkeypatch.setattr(experiments, "sample_clicks", too_fast)
        with pytest.raises(RateTooHigh):
            list(_click_chunks(TINY, 3 * FIELD_CHUNK_SAMPLES * dt)[0])
        assert len(drawn) == 2  # chunk 1 finished before the error left
        assert threading.active_count() == before

    def test_helper_calls_no_traced_name(self, monkeypatch):
        # perfbench's tracer takes calls to nest on one thread, so every
        # name it wraps must be called from the caller's thread
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
        spec.loader.exec_module(tracing)
        calls = []
        for probe in tracing.PROBES:
            module = importlib.import_module(probe.module)
            fn = getattr(module, probe.attr, None)
            if callable(fn):
                monkeypatch.setattr(module, probe.attr, _recording(fn, probe.attr, calls))
        dt = TINY.field_dt_ns * 1e-9
        chunks, n_chunks, _, _ = _click_chunks(TINY, 3 * FIELD_CHUNK_SAMPLES * dt)
        list(chunks)
        assert [name for name, _ in calls].count("sample_clicks") == n_chunks == 3
        assert {thread for _, thread in calls} == {threading.main_thread()}


class _Stop(Exception):
    pass


def _record_chunk_sizes(monkeypatch, stop_after=None):
    """The sizes of the field chunks drawn from now on, in order; with
    ``stop_after``, chunk number ``stop_after`` is recorded but not drawn:
    _Stop is raised instead, before its buffer is written."""
    sizes = []
    original = clicks._innovations

    def recording(rng, out, mu_dt, e_prev):
        sizes.append(out.size)
        if len(sizes) == stop_after:
            raise _Stop
        return original(rng, out, mu_dt, e_prev)

    monkeypatch.setattr(clicks, "_innovations", recording)
    return sizes


def _recording(fn, name, calls):
    """``fn``, appending (name, calling thread) to ``calls`` on each call."""

    def wrapper(*args, **kwargs):
        calls.append((name, threading.current_thread()))
        return fn(*args, **kwargs)

    return wrapper


class TestFockPanels:
    def test_all_modes_present(self, panels_run):
        out, result = panels_run
        assert set(result) == {"g1", "g2", "f1", "f2"}
        for name in result:
            assert (out / f"panel_{name}.json").exists()
            assert (out / f"mode_{name}.csv").exists()

    def test_panel_contents(self, panels_run):
        out, result = panels_run
        panel = json.loads((out / "panel_f1.json").read_text())
        probs = panel["reconstruction"]["probs"]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(probs[:3], panel["analytic_probs"], atol=0.1)
        exact = panel["exact_rho"]
        d = exact["dimension"]
        rho = (np.array(exact["real"]) + 1j * np.array(exact["imag"])).reshape(d, d)
        assert rho.shape == (3, 3)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        # bit for bit the reduced state the panel fits
        scene = _build_scene(TINY, 40e-9)
        np.testing.assert_array_equal(rho, reduce_to_mode(scene.state, scene.modes["f1"]))

    def test_mode_csv_round_trip(self, panels_run):
        out, _ = panels_run
        scene = _build_scene(TINY, 40e-9)
        grid = TINY.grid()
        for name, mode in scene.modes.items():
            t, amplitude = np.loadtxt(out / f"mode_{name}.csv", delimiter=",", skiprows=1, unpack=True)
            np.testing.assert_allclose(t, grid.times(), rtol=1e-10)
            np.testing.assert_allclose(amplitude, mode.samples, rtol=1e-10)
            assert np.dot(amplitude, amplitude) * grid.dt == pytest.approx(1.0, abs=1e-9)

    def test_mode_csv_header(self, panels_run):
        out, result = panels_run
        for name in result:
            assert (out / f"mode_{name}.csv").read_text().splitlines()[0] == "t_seconds,amplitude"

    def test_zero_delay_rejected(self, tmp_path):
        with pytest.raises(OutOfRange):
            run_fock_panels(TINY, 0.0, tmp_path / "panels")
        assert not (tmp_path / "panels").exists()

    def test_sweeps_report_the_panels_analytic_values(self, tmp_path):
        # one closed form per mode and delay: the sweeps' analytic columns
        # are the panels' values bit for bit
        cfg = dataclasses.replace(TINY, delays_ns=(2.0,))
        panels = run_fock_panels(cfg, 2.0, tmp_path / "panels")
        adapted = run_delay_sweep(cfg, tmp_path / "adapted")[0]
        fixed = run_fixed_mode_sweep(cfg, tmp_path / "fixed")[0]
        assert adapted["P2_f1_analytic"] == panels["f1"]["analytic_probs"][2]
        assert [fixed[f"P{n}_analytic"] for n in range(3)] == panels["g1"]["analytic_probs"][:3]


@pytest.mark.parametrize("delta_t_ns", [0.0, 10.0, 40.0])
def test_scene_closed_forms_match_its_fock_state(delta_t_ns):
    scene = _build_scene(TINY, delta_t_ns * 1e-9)
    expected = ["g1", "g2", "f1"] if delta_t_ns == 0.0 else ["g1", "g2", "f1", "f2"]
    assert list(scene.modes) == list(scene.analytic) == expected
    for name, mode in scene.modes.items():
        exact = photon_distribution(reduce_to_mode(scene.state, mode)).probs
        np.testing.assert_allclose(exact[:3], scene.analytic[name].probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(exact[3:], 0.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("delta_t_ns", [0.0, 2.0, 10.0, 40.0])
def test_scene_reductions_are_exactly_diagonal(delta_t_ns):
    # the heralds carry no phase reference, so every coherence of the scene
    # state joins equal total photon numbers and every one-mode reduction is
    # Fock-diagonal, which sample_quadratures requires; also for a mode
    # outside span{g1, g2} and for one that is half outside it
    scene = _build_scene(TINY, delta_t_ns * 1e-9)
    g1, g2 = scene.modes["g1"], scene.modes["g2"]
    seeds = [g1] if delta_t_ns == 0.0 else [g1, g2]
    outside = extend_orthonormal_basis(seeds, TINY.grid(), len(seeds) + 1)[-1]
    half = ModeFunction(
        grid=outside.grid, samples=(g1.samples + outside.samples) / math.sqrt(2.0), normalized=True
    )
    for mode in [*scene.modes.values(), outside, half]:
        rho = reduce_to_mode(scene.state, mode)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0


@pytest.mark.parametrize(
    "overrides, first_refused_ns",
    [
        # each trigger mode is one grid sample: their overlap is 0, as the
        # closed form gives at every nonzero delay
        ({"gamma_hz": 1e12}, []),
        # the largest gap over the default delays is 3.1e-4
        ({"grid_dt_ns": 0.3, "grid_window_ns": 600.0}, []),
        # 1.2e-3 at 6 ns, the first delay beyond the limit
        ({"grid_dt_ns": 0.6, "grid_window_ns": 600.0}, [6.0]),
    ],
    ids=["narrow_modes", "fine_enough", "too_coarse"],
)
def test_scene_refuses_a_grid_that_moves_the_overlap(overrides, first_refused_ns):
    config = ExperimentConfig(**overrides)
    refused = []
    for delta_ns in config.delays_ns:
        try:
            _build_scene(config, delta_ns * 1e-9)
        except ResolutionTooCoarse:
            refused.append(delta_ns)
    assert refused[:1] == first_refused_ns


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestEndToEnd:
    def test_report_shape(self, e2e_run, tmp_path):
        # at seed 3 the 41-pair bin at 33 ns puts P2 on its boundary
        seed3 = end_to_end(dataclasses.replace(E2E_CFG, rng_seed=3), tmp_path)
        for report in (e2e_run[1], seed3):
            assert report["n_bins"] == 33  # ceil(65 / 2)
            assert 0 < report["n_bins_reconstructed"] <= report["n_bins"]
            assert report["n_pairs"] > 0
            assert len(report["bins"]) == report["n_bins"]
            for entry in report["bins"]:
                if entry["skipped"]:
                    assert "reconstruction" not in entry
                    continue
                assert sum(entry["reconstruction"]["probs"]) == pytest.approx(1.0, abs=1e-9)
                # on ~50 pairs the information stderr is only an asymptotic
                # guide, so only guard against wild or non-finite pulls here
                pull = entry["P2_pull"]
                assert isinstance(pull, float) and np.isfinite(pull) and abs(pull) < 30.0
        assert "NaN" not in (tmp_path / "report.json").read_text()

    def test_samples_csv(self, e2e_run):
        out, report = e2e_run
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "x,theta_rad,delta_t_ns"
        n_expected = sum(
            e["n_pairs"] for e in report["bins"] if not e["skipped"]
        )
        assert len(lines) == 1 + n_expected
        delays = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert np.all((delays >= 0.0) & (delays <= 65.0))

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        end_to_end(E2E_CFG, a)
        end_to_end(E2E_CFG, b)
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()

    def test_samples_follow_the_bins_analytic_law(self, e2e_run):
        # every reconstructed bin draws x from its state in f1, so the pooled
        # x column follows the pair-weighted mix of the bins' analytic laws
        out, report = e2e_run
        x = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)[:, 0]
        kept = [e for e in report["bins"] if not e["skipped"]]
        weights = np.array([e["n_pairs"] for e in kept], dtype=float)
        probs = weights @ np.array([e["analytic_probs"] for e in kept]) / weights.sum()
        d = ks_statistic(x, PhotonDistribution(probs))
        assert d * math.sqrt(x.size) < KS_CRIT_1PC

    def test_insufficient_pairs(self, tmp_path):
        sparse = dataclasses.replace(
            E2E_CFG, end_to_end_duration_s=2e-4, min_pairs_per_bin=5000
        )
        with pytest.raises(InsufficientPairs):
            end_to_end(sparse, tmp_path)

    def test_failed_run_leaves_no_directory(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"end_to_end_duration_s": 0.001, "min_pairs_per_bin": 100000}))
        rc = main(["end-to-end", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line)["error"]["type"] == "InsufficientPairs"
        assert not (tmp_path / "run").exists()

    def test_skip_warning(self, tmp_path):
        sparse = dataclasses.replace(
            E2E_CFG, end_to_end_duration_s=2e-4, min_pairs_per_bin=5000
        )
        with pytest.warns(UserWarning, match="skipping reconstruction"):
            with pytest.raises(InsufficientPairs):
                end_to_end(sparse, tmp_path)

    def test_coarse_mode_grid_fails_before_any_click(self, tmp_path, monkeypatch):
        # every bin center is checked first, skipped bins included
        def no_field(*args, **kwargs):
            raise AssertionError("a field chunk was asked for")

        monkeypatch.setattr(experiments, "thermal_field_chunks", no_field)
        with pytest.raises(ResolutionTooCoarse):
            end_to_end(ExperimentConfig(grid_dt_ns=6, grid_window_ns=600), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_peak_memory_follows_pairs_not_clicks(self, tmp_path, monkeypatch):
        # the clicks are selected chunk by chunk, so a six times longer run
        # adds only pair-sized arrays, about one pair per 30 clicks (the
        # whole run's clicks cost about 48 B each).  Small field chunks keep
        # the two field buffers from hiding the clicks; the run stops at its
        # delay bins, as all that follows is per pair.
        monkeypatch.setattr(experiments, "FIELD_CHUNK_SAMPLES", 2**16)
        peaks, clicks = [], []
        for duration in (1e-3, 6e-3):
            config = dataclasses.replace(E2E_CFG, end_to_end_duration_s=duration, min_pairs_per_bin=10**6)
            tracemalloc.start()
            try:
                with pytest.raises(InsufficientPairs):
                    end_to_end(config, tmp_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            clicks.append(config.mean_rate_hz * duration)  # expected
        assert peaks[1] - peaks[0] <= 16 * (clicks[1] - clicks[0])


class TestReconstructSamples:
    def test_payload_and_file(self, tmp_path):
        csv = write_sample_csv(tmp_path / "samples.csv")
        out = tmp_path / "out"
        payload = reconstruct_samples(csv, TINY, out)
        assert payload["n_samples"] == 5000
        assert payload["source"] == str(csv)
        assert sum(payload["probs"]) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(payload["probs"][:3], LOSSY_TWO_PHOTON, atol=0.05)
        assert len(payload["stderr"]) == TINY.tomo_cutoff + 1
        disk = json.loads((out / "reconstruction.json").read_text())
        assert disk == payload

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("quadrature\n0.1\n")
        with pytest.raises(OutOfRange):
            reconstruct_samples(path, TINY, tmp_path / "out")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,theta_rad\n", "no samples"),
            ("x,theta_rad\n0.1,0.2\nabc,0.3\n", "abc"),
            ("x,theta_rad\n0.1,0.2\n0.3\n", "column"),
        ],
    )
    def test_bad_rows_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr
            with pytest.raises(OutOfRange, match=message):
                reconstruct_samples(path, TINY, tmp_path / "out")


def test_manifest_lists_exactly_the_files_written(tmp_path, delay_sweep_run, fixed_sweep_run, panels_run, e2e_run):
    g2_out, reconstruct_out = tmp_path / "g2", tmp_path / "reconstruct"
    run_g2(TestRunG2.CFG, g2_out)
    reconstruct_samples(write_sample_csv(tmp_path / "samples.csv"), TINY, reconstruct_out)
    for out in (g2_out, delay_sweep_run[0], fixed_sweep_run[0], panels_run[0], e2e_run[0], reconstruct_out):
        manifest = json.loads((out / "manifest.json").read_text())
        written = [path.name for path in out.iterdir() if path.name != "manifest.json"]
        assert sorted(manifest["outputs"]) == sorted(written), out


class TestCli:
    @staticmethod
    def config_file(tmp_path, **overrides):
        cfg = dataclasses.replace(TINY, delays_ns=(0.0,), samples_per_point=1500, **overrides)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        return path, cfg

    def test_sweep_delay_success(self, tmp_path, capsys):
        cfg_path, _ = self.config_file(tmp_path)
        rc = main(
            ["sweep-delay", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_points"] == 1
        assert (tmp_path / "run" / "delay_sweep" / "delay_sweep.csv").exists()

    def test_seed_and_samples_overrides(self, tmp_path, capsys):
        cfg_path, cfg = self.config_file(tmp_path)
        rc = main(
            [
                "sweep-delay",
                "--config", str(cfg_path),
                "--out", str(tmp_path / "run"),
                "--seed", "12345",
                "--samples", "2000",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        manifest = json.loads(
            (tmp_path / "run" / "delay_sweep" / "manifest.json").read_text()
        )
        assert manifest["rng_seed"] == 12345
        assert manifest["config"]["samples_per_point"] == 2000
        assert manifest["config_hash"] != config_hash(cfg)

    def test_reconstruct_success(self, tmp_path, capsys):
        csv = write_sample_csv(tmp_path / "samples.csv", count=2000)
        cfg_path, _ = self.config_file(tmp_path)
        rc = main(
            [
                "reconstruct", str(csv),
                "--config", str(cfg_path),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_samples"] == 2000

    def test_missing_file_error_json(self, tmp_path, capsys):
        rc = main(["reconstruct", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "FileNotFoundError"
        assert "message" in err["error"]

    def test_bad_config_error_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"no_such_knob": 1}')
        rc = main(["sweep-delay", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "OutOfRange"

    @staticmethod
    def single_error(capsys):
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])["error"]

    def test_single_bootstrap_rep_error_json(self, tmp_path, capsys):
        # bootstrap_reps is no longer a config key, so a config that sets it
        # fails as any unknown key does
        csv = write_sample_csv(tmp_path / "samples.csv", count=2000)
        path = tmp_path / "config.json"
        path.write_text('{"bootstrap_reps": 1}')
        rc = main(["reconstruct", str(csv), "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "bootstrap_reps" in err["message"]

    @pytest.mark.parametrize("rows", [["0.3,0.1"], ["0.3,0.1"] * 2000], ids=["one_sample", "one_bin"])
    def test_single_bin_error_json(self, tmp_path, capsys, rows):
        # one occupied bin cannot inform two weights: exit 1 with one JSON
        # error object, never a NaN stderr
        csv = tmp_path / "samples.csv"
        csv.write_text("x,theta_rad\n" + "\n".join(rows) + "\n")
        rc = main(["reconstruct", str(csv), "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "InsufficientStatistics" and "not positive definite" in err["message"]

    def test_non_finite_sample_error_json(self, tmp_path, capsys):
        csv = write_sample_csv(tmp_path / "samples.csv", count=2000)
        with open(csv, "a") as fh:
            fh.write("nan,0.5\n")
        rc = main(["reconstruct", str(csv), "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "not finite" in err["message"]

    def test_mistyped_config_error_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"eta": "high"}')
        rc = main(["sweep-delay", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "eta" in err["message"]

    def test_negative_seed_error_json(self, tmp_path, capsys):
        rc = main(["g2", "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "rng_seed" in err["message"]

    def test_nan_delay_error_json(self, tmp_path, capsys, monkeypatch):
        # refused before any scene is built
        monkeypatch.setattr(experiments, "_build_scene", None)
        rc = main(["fock-panels", "--delay-ns", "nan", "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "nan ns" in err["message"]
        assert not (tmp_path / "fock_panels").exists()

    @pytest.mark.parametrize("raw", ["inf", "-inf", "0"])
    def test_infinite_delay_error_json(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setattr(experiments, "_build_scene", None)
        rc = main(["fock-panels", f"--delay-ns={raw}", "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and f"{float(raw)} ns" in err["message"]
        assert not (tmp_path / "fock_panels").exists()

    def test_negative_panel_delay_error_json(self, tmp_path, capsys):
        # g1 names the earlier trigger; a negative delay would swap the labels
        rc = main(["fock-panels", "--delay-ns", "-5", "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "positive" in err["message"]

    def test_sample_count_beyond_numpy_dimensions_error_json(self, tmp_path, capsys):
        # numpy refuses this size before it allocates anything
        rc = main(["sweep-delay", "--samples", str(10**20), "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "ValueError" and "dimension" in err["message"]

    def test_unallocatable_count_error_json(self, tmp_path, capsys, monkeypatch):
        # what numpy raises for a count such as --samples 1000000000000,
        # without making the allocation
        def out_of_memory(rho, count, rng_seed):
            raise MemoryError(f"Unable to allocate {8 * count} bytes")

        monkeypatch.setattr(experiments, "quadrature_values", out_of_memory)
        cfg_path, _ = self.config_file(tmp_path)
        rc = main(["sweep-delay", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "MemoryError" and "Unable to allocate" in err["message"]

    @pytest.mark.parametrize(
        "command, raw",
        [
            ("end-to-end", '{"end_to_end_duration_s": 2e-4, "delta_t_bin_ns": 1e-300}'),
            ("end-to-end", '{"acceptance_window_ns": 1e300}'),
            ("g2", '{"g2_n_events": 400000, "g2_bin_ns": 1e-300}'),
            ("sweep-delay", '{"grid_dt_ns": 1e-300}'),
        ],
        ids=["delay_bin", "acceptance_window", "g2_bin", "grid_dt"],
    )
    def test_oversized_array_error_json(self, tmp_path, capsys, command, raw):
        # a count numpy cannot allocate must not reach np.arange as a bare ValueError
        path = tmp_path / "config.json"
        path.write_text(raw)
        rc = main([command, "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "exceed the limit" in err["message"]

    @pytest.mark.parametrize(
        "command, raw",
        [
            ("end-to-end", '{"end_to_end_duration_s": Infinity}'),
            ("g2", '{"mean_rate_hz": 1e-300}'),
        ],
        ids=["infinite_duration", "vanishing_rate"],
    )
    def test_unbounded_field_error_json(self, tmp_path, capsys, command, raw):
        # the field's chunk count is checked before any field is sized
        path = tmp_path / "config.json"
        path.write_text(raw)
        rc = main([command, "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "field chunks" in err["message"]

    @pytest.mark.parametrize(
        "command, raw",
        [
            ("end-to-end", '{"end_to_end_duration_s": 100}'),
            ("g2", '{"g2_n_events": 1000000000}'),
        ],
        ids=["end_to_end", "g2"],
    )
    def test_expected_clicks_error_json(self, tmp_path, capsys, command, raw):
        # the expected click count is checked before any field is made
        path = tmp_path / "config.json"
        path.write_text(raw)
        rc = main([command, "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "clicks" in err["message"]

    def test_tomography_settings_error_json(self, tmp_path, capsys):
        # rejected before the click stream runs: no output directory is made
        path = tmp_path / "config.json"
        path.write_text('{"tomo_n_bins": 32}')
        rc = main(["end-to-end", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "OutOfRange" and "n_bins" in err["message"]
        assert not (tmp_path / "run" / "end_to_end").exists()

    def test_coarse_mode_grid_error_json(self, tmp_path, capsys):
        # a 6 ns step puts the trigger-mode overlap at 2 ns 2.8e-2 off its
        # closed form, which would move the analytic columns unflagged
        path = tmp_path / "config.json"
        path.write_text('{"grid_dt_ns": 6, "grid_window_ns": 600}')
        rc = main(["sweep-delay", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "ResolutionTooCoarse" and "overlap" in err["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, raw, error, says",
        [
            ("g2", '{"g2_n_events": 50000, "g2_bin_ns": 40, "g2_max_delay_ns": 60}', "OutOfRange", ()),
            ("g2", '{"g2_n_events": 400000, "g2_bin_ns": 0.7}', "OutOfRange", ()),
            # 5 correlation times are 30.03 ns: a 10 ns range has no flat plateau
            (
                "g2",
                '{"g2_n_events": 400000, "g2_max_delay_ns": 10, "g2_bin_ns": 0.5}',
                "OutOfRange",
                ("g2_max_delay_ns 10", "30.03 ns"),
            ),
            ("sweep-delay", '{"grid_dt_ns": 6, "grid_window_ns": 600}', "ResolutionTooCoarse", ()),
            ("sweep-fixed", '{"grid_dt_ns": 6, "grid_window_ns": 600}', "ResolutionTooCoarse", ()),
            ("fock-panels", '{"grid_dt_ns": 6, "grid_window_ns": 600}', "ResolutionTooCoarse", ()),
            # the first bin center, 0.005 ns, leaves no antisymmetric mode
            (
                "end-to-end",
                '{"delta_t_bin_ns": 0.01, "min_pairs_per_bin": 1, "end_to_end_duration_s": 0.004}',
                "DegenerateModes",
                ("0.005 ns delay", "delta_t_bin_ns 0.01"),
            ),
            ("sweep-delay", '{"delays_ns": [0.0, 0.0001]}', "DegenerateModes", ("0.0001 ns delay",)),
            # mean_rate_hz * field_dt_ns = 0.5, beyond the thinning's bound 0.1
            ("g2", '{"mean_rate_hz": 1e9}', "RateTooHigh", ("mean_rate*dt_field",)),
            ("end-to-end", '{"mean_rate_hz": 1e9}', "RateTooHigh", ("mean_rate*dt_field",)),
            # 1e5 clicks at 1 MHz expect 1e5 * 1e6 * 0.2 * 60 ns = 1,200 plateau pairs
            (
                "g2",
                '{"mean_rate_hz": 1e6, "g2_n_events": 100000}',
                "InsufficientStatistics",
                ("~1200 plateau pairs", "need >= 2500"),
            ),
        ],
        ids=[
            "g2_bin_40ns", "g2_bin_0.7ns", "g2_range_10ns", "sweep_delay", "sweep_fixed", "fock_panels",
            "end_to_end", "sweep_delay_degenerate", "g2_rate", "end_to_end_rate", "g2_thin_plateau",
        ],
    )
    def test_config_failure_precedes_every_draw(self, tmp_path, capsys, monkeypatch, command, raw, error, says):
        # what the config alone fixes is checked before the first random draw
        def no_draw(*args, **kwargs):
            raise AssertionError("a random draw was made")

        for name in ("thermal_field_chunks", "quadrature_values", "sample_quadratures"):
            monkeypatch.setattr(experiments, name, no_draw)
        path = tmp_path / "config.json"
        path.write_text(raw)
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == error
        assert all(part in err["message"] for part in says), err["message"]
        assert not (tmp_path / "run").exists()

    def test_warnings_before_a_failure_join_the_error(self, tmp_path, capsys):
        # every delay bin is skipped with a warning, then InsufficientPairs
        path = tmp_path / "config.json"
        path.write_text('{"end_to_end_duration_s": 0.001, "min_pairs_per_bin": 100000}')
        rc = main(["end-to-end", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = self.single_error(capsys)
        assert err["type"] == "InsufficientPairs"
        assert len(err["warnings"]) == 33
        assert all("skipping reconstruction" in w for w in err["warnings"])

    def test_warnings_of_a_success_reach_stderr(self, tmp_path):
        csv = write_sample_csv(tmp_path / "samples.csv", count=500)
        src = str(Path(heraldsim.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "heraldsim.cli", "reconstruct", str(csv), "--out", str(tmp_path)],
            capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "UserWarning: only 500 samples" in proc.stderr
        assert "error" not in proc.stderr
        assert json.loads(proc.stdout)["n_samples"] == 500

    def test_python_m_error_is_one_json_line(self, tmp_path):
        # ``python -m heraldsim.cli`` imports the package first; if that
        # import loaded heraldsim.cli, runpy would warn on stderr
        src = str(Path(heraldsim.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "heraldsim.cli",
             "reconstruct", str(tmp_path / "nope.csv"), "--out", str(tmp_path)],
            capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"]["type"] == "FileNotFoundError"

    def test_seed_beyond_64_bits_runs(self, tmp_path, capsys):
        csv = write_sample_csv(tmp_path / "samples.csv", count=2000)
        cfg_path, _ = self.config_file(tmp_path)
        seed = "18446744073709551616"
        rc = main(["reconstruct", str(csv), "--config", str(cfg_path), "--seed", seed,
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "run" / "reconstruct" / "manifest.json").read_text())
        assert manifest["rng_seed"] == 2**64

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        rc = main(["sweep-delay", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "JSONDecodeError"


# ---------------------------------------------------------------------------
# CLI contract for any input: exit != 0 leaves exactly one JSON error object
# on stderr; exit 0 writes only finite numbers.

WRONG_TYPE = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.lists(st.integers(0, 3), max_size=2)
)
# keys that reconstruct reads or validates; tomo_n_bins stays small so the
# test runs in seconds
VALID = {
    "tomo_cutoff": st.integers(2, 16),
    "tomo_n_bins": st.integers(64, 512),
    "rng_seed": st.integers(0, 2**70),
    "eta": st.floats(0.0, 1.0),
    "samples_per_point": st.integers(1, 10**6),
    "delays_ns": st.lists(st.floats(0.0, 50.0), min_size=1, max_size=3).map(sorted),
    "dead_time_ns": st.floats(0.0, 1e3),
}
OUT_OF_RANGE = {
    "tomo_cutoff": st.integers(-2, 1) | st.integers(17, 40),
    "tomo_n_bins": st.integers(-3, 63),
    "rng_seed": st.integers(-(2**70), -1),
    "eta": st.floats(allow_nan=True, allow_infinity=True).filter(lambda v: not 0.0 <= v <= 1.0),
    "samples_per_point": st.integers(-3, 0),
    "delays_ns": st.sampled_from([[], [4.0, 2.0], [-1.0], [0.0, math.nan], [math.inf]]),
    "dead_time_ns": st.floats(-1e3, -0.1) | st.just(math.nan),
}
FINITE = st.floats(-9.0, 9.0) | st.floats(allow_nan=False, allow_infinity=False)
NOT_FINITE_OR_NUMBER = st.sampled_from(["nan", "inf", "-inf", "-nan", "abc", ""])


@st.composite
def reconstruct_inputs(draw):
    """A config dict and sample rows; either may hold one bad entry, and
    the rows may be empty."""
    config = {key: draw(values) for key, values in VALID.items() if draw(st.booleans())}
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(sorted(VALID)))
        config[key] = draw(OUT_OF_RANGE[key] | WRONG_TYPE | st.floats(0.5, 9.5))
    phases = st.floats(0.0, 2.0 * math.pi).map(repr)
    rows = draw(st.lists(st.tuples(FINITE.map(repr), phases), min_size=1, max_size=40))
    spoil = draw(st.sampled_from(["none", "none", "field", "empty"]))
    if spoil == "field":
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = (draw(NOT_FINITE_OR_NUMBER), rows[k][1])
    return config, [] if spoil == "empty" else rows


def json_numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from json_numbers(item)
    elif isinstance(value, (int, float)):
        yield value


@settings(max_examples=60, deadline=None)
@given(inputs=reconstruct_inputs())
def test_reconstruct_cli_contract(inputs):
    config, rows = inputs
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, csv_path, out = Path(tmp, "config.json"), Path(tmp, "samples.csv"), Path(tmp, "run")
        cfg_path.write_text(json.dumps(config))
        csv_path.write_text("x,theta_rad\n" + "".join(f"{x},{theta}\n" for x, theta in rows))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            rc = main(["reconstruct", str(csv_path), "--config", str(cfg_path), "--out", str(out)])
        event(f"exit {rc}")
        if rc != 0:
            # outside pytest a warning prints on stderr beside the error object
            assert not [str(w.message) for w in caught]
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error"}
        else:
            payload = json.loads((out / "reconstruct" / "reconstruction.json").read_text())
            assert all(math.isfinite(v) for v in json_numbers(payload))
