"""Maximum-likelihood photon-number tomography: binned POVM, EM fixed
point, bootstrap errors.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from heraldsim.analytic import apply_loss, fixed_mode_distribution
from heraldsim.errors import CutoffExceeded, EmptyInput, InvalidDensity, OutOfRange
from heraldsim.homodyne import X_MAX, sample_quadratures
from heraldsim.modes import overlap_closed_form
from heraldsim.tomo import (
    MLConfig,
    _em,
    _histogram,
    build_povm,
    ml_diagonal,
)

from conftest import ETA, GAMMA

LOSSY_TWO_PHOTON = np.array([0.0576, 0.3648, 0.5776])


def draws(probs, count, seed):
    rho = np.diag(np.asarray(probs, dtype=float)).astype(complex)
    return sample_quadratures(rho, count, rng_seed=seed)


def reference_em(hist, pi, config):
    """EM on one histogram as a plain loop: the per-row reference that the
    batched kernel ``_em`` must reproduce.  Returns (probs, final
    log-likelihood, iterations, converged, log-likelihood history)."""
    probs = np.full(config.cutoff + 1, 1.0 / (config.cutoff + 1))
    total = hist.sum()
    ll_prev = -np.inf
    history = []
    converged = False
    iters = 0
    occupied = hist > 0
    for iters in range(1, config.max_iters + 1):
        p_bin = np.maximum(probs @ pi, 1e-300)
        ll = float(hist[occupied] @ np.log(p_bin[occupied]))
        history.append(ll)
        probs = probs * (pi @ (hist / p_bin)) / total
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum()
        if ll_prev != -np.inf and abs(ll - ll_prev) <= config.tol * abs(ll_prev):
            converged = True
            break
        ll_prev = ll
    p_bin = np.maximum(probs @ pi, 1e-300)
    history.append(float(hist[occupied] @ np.log(p_bin[occupied])))
    return probs, history[-1], iters, converged, np.array(history)


class TestBuildPovm:
    def test_rows_sum_to_one(self):
        povm = build_povm(cutoff=5, n_bins=256)
        assert povm.elements.shape == (6, 256)
        np.testing.assert_allclose(povm.elements.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(povm.elements >= 0.0)

    def test_mirror_symmetry(self):
        povm = build_povm(cutoff=4, n_bins=128)
        np.testing.assert_allclose(
            povm.elements, povm.elements[:, ::-1], atol=1e-12
        )

    def test_second_moment_per_state(self):
        # Gauss-Legendre bin masses reproduce <x**2> = (2n + 1)/2
        povm = build_povm(cutoff=5, n_bins=256)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        edges = povm.edges
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        xs = mids[:, None] + half * nodes[None, :]
        from heraldsim.homodyne import hermite_function

        for n in range(3):
            psi = hermite_function(n, xs)
            moment = float(np.sum((xs * xs * psi * psi) @ weights * half))
            assert moment == pytest.approx((2 * n + 1) / 2.0, abs=1e-6)

    def test_guards(self):
        with pytest.raises(OutOfRange):
            build_povm(cutoff=5, n_bins=32)
        with pytest.raises(CutoffExceeded):
            build_povm(cutoff=0, n_bins=256)

    def test_edges_cover_range(self):
        povm = build_povm(cutoff=2, n_bins=64)
        assert povm.edges[0] == -X_MAX and povm.edges[-1] == X_MAX
        assert povm.n_bins == 64 and povm.cutoff == 2


class TestMlDiagonal:
    def test_recovers_vacuum(self):
        result = ml_diagonal(draws([1.0], 20_000, seed=201))
        assert result.probs[0] > 0.98
        assert float(result.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_recovers_single_photon(self):
        result = ml_diagonal(draws([0.0, 1.0], 20_000, seed=202))
        assert result.probs[1] > 0.97

    def test_recovers_mixture(self):
        result = ml_diagonal(draws(LOSSY_TWO_PHOTON, 50_000, seed=203))
        np.testing.assert_allclose(result.probs[:3], LOSSY_TWO_PHOTON, atol=0.03)
        assert float(np.sum(result.probs[3:])) < 0.02

    def test_loglikelihood_monotone(self):
        result = ml_diagonal(draws(LOSSY_TWO_PHOTON, 5_000, seed=204))
        assert np.all(np.diff(result.ll_history) >= -1e-9 * np.abs(result.ll_history[:-1]))
        assert result.converged

    def test_accepts_xtheta_rows(self):
        samples = draws(LOSSY_TWO_PHOTON, 5_000, seed=205)
        a = ml_diagonal(samples)
        b = ml_diagonal(samples[:, 0])
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_permutation_invariant(self):
        samples = draws(LOSSY_TWO_PHOTON, 5_000, seed=206)[:, 0]
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(samples)
        np.testing.assert_array_equal(
            ml_diagonal(samples).probs, ml_diagonal(shuffled).probs
        )

    def test_error_shrinks_with_samples(self):
        # average over seeds: single draws fluctuate too much for an ordering
        errs = []
        for n in (1_000, 100_000):
            per_seed = []
            for seed in (207, 307, 407):
                probs = ml_diagonal(draws(LOSSY_TWO_PHOTON, n, seed=seed)).probs
                per_seed.append(float(np.max(np.abs(probs[:3] - LOSSY_TWO_PHOTON))))
            errs.append(float(np.mean(per_seed)))
        assert errs[1] < 0.5 * errs[0]
        assert errs[1] < 0.01

    def test_cutoff_stability(self):
        samples = draws(LOSSY_TWO_PHOTON, 50_000, seed=208)
        p5 = ml_diagonal(samples, MLConfig(cutoff=5)).probs
        p7 = ml_diagonal(samples, MLConfig(cutoff=7)).probs
        np.testing.assert_allclose(p5[:3], p7[:3], atol=0.005)

    def test_small_sample_warning(self):
        with pytest.warns(UserWarning, match="noisy"):
            ml_diagonal(draws([1.0], 500, seed=209))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ml_diagonal(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        samples = draws(LOSSY_TWO_PHOTON, 2_000, seed=218)
        samples[17, 0] = bad
        with pytest.raises(OutOfRange, match="not finite"):
            ml_diagonal(samples)
        with pytest.raises(OutOfRange, match="not finite"):
            ml_diagonal(samples, MLConfig(), 16, 0)

    def test_json_keys(self):
        result = ml_diagonal(draws([1.0], 2_000, seed=210))
        d = result.to_json_dict()
        assert set(d) == {"cutoff", "probs", "log_likelihood", "iterations", "converged"}
        assert d["cutoff"] == 5 and len(d["probs"]) == 6


class TestEmKernel:
    @staticmethod
    def histograms(config):
        sets = [
            (LOSSY_TWO_PHOTON, 2_000, 221),
            (LOSSY_TWO_PHOTON, 20_000, 222),
            ([1.0], 5_000, 223),
            ([0.0, 1.0], 5_000, 224),
            ([0.3, 0.3, 0.4], 50_000, 225),
        ]
        rows = [_histogram(draws(p, n, seed), config) for p, n, seed in sets]
        return np.stack([hist for hist, _ in rows]), rows[0][1]

    def test_batch_matches_per_row_loop(self):
        # a budget between the rows' stopping points: some rows converge,
        # the others freeze at max_iters
        config = MLConfig(max_iters=400, tol=1e-9)
        hist, pi = self.histograms(config)
        probs, ll, iters, converged, history = _em(hist, pi, config)
        assert 0 < np.count_nonzero(converged) < hist.shape[0]
        for b in range(hist.shape[0]):
            ref_probs, ref_ll, ref_iters, ref_converged, ref_history = reference_em(
                hist[b], pi, config
            )
            assert iters[b] == ref_iters and converged[b] == ref_converged
            # same products per row; only the log-likelihood sums over the
            # batch's occupied bins
            np.testing.assert_array_equal(probs[b], ref_probs)
            assert ll[b] == pytest.approx(ref_ll, rel=1e-12)
            assert history[b].shape == (ref_iters + 1,)
            np.testing.assert_allclose(history[b], ref_history, rtol=1e-12)
            assert history[b][-1] == ll[b]

    def test_single_row_is_the_loop_bit_for_bit(self):
        samples = draws(LOSSY_TWO_PHOTON, 20_000, seed=226)
        hist, pi = _histogram(samples, MLConfig())
        ref_probs, ref_ll, ref_iters, ref_converged, ref_history = reference_em(hist, pi, MLConfig())
        result = ml_diagonal(samples)
        np.testing.assert_array_equal(result.probs, ref_probs)
        np.testing.assert_array_equal(result.ll_history, ref_history)
        assert result.log_likelihood == ref_ll
        assert result.iterations == ref_iters and result.converged == ref_converged

    def test_falling_likelihood_raises_on_any_row(self):
        # negative counts break EM's monotonicity; the check covers row 1
        # of the batch, not only the first row
        config = MLConfig(cutoff=2, n_bins=64)
        pi = build_povm(2, 64).elements
        bad = np.random.default_rng(0).integers(0, 50, 64).astype(float)
        bad[[5, 30, 50]] = -500.0
        with pytest.raises(InvalidDensity, match="row 1"):
            _em(np.stack([np.full(64, 20.0), bad]), pi, config)

    def test_default_budget_reaches_the_stopping_rule(self):
        # bootstrap replicate 14 of the default fixed-mode sweep at 30 ns
        # (mode g1, seeds of config seed 5) needs 2,079 iterations; the old
        # 2,000-iteration budget returned it unconverged
        probs = apply_loss(fixed_mode_distribution(overlap_closed_form(30e-9, GAMMA)), ETA).probs
        hist, pi = _histogram(draws(probs, 100_000, seed=6777710724561418609), MLConfig())
        rng = np.random.default_rng(8108440146360779095)
        replicate = rng.multinomial(100_000, hist / 100_000, size=16)[14].astype(float)
        _, _, iters, converged, _ = _em(replicate[None, :], pi, MLConfig())
        assert converged[0] and 2_000 < iters[0] <= MLConfig().max_iters
        _, _, _, converged, _ = _em(replicate[None, :], pi, MLConfig(max_iters=2_000))
        assert not converged[0]


class TestBootstrapStderr:
    def test_positive_and_deterministic(self):
        samples = draws(LOSSY_TWO_PHOTON, 20_000, seed=214)
        a = ml_diagonal(samples, MLConfig(), 16, 3).stderr
        b = ml_diagonal(samples, MLConfig(), 16, 3).stderr
        np.testing.assert_array_equal(a, b)
        assert a.shape == (6,)
        assert np.all(a[:3] > 0.0)

    def test_scales_with_sample_size(self):
        small = ml_diagonal(draws(LOSSY_TWO_PHOTON, 4_000, seed=215), MLConfig(), 16, 4).stderr
        large = ml_diagonal(draws(LOSSY_TWO_PHOTON, 40_000, seed=216), MLConfig(), 16, 4).stderr
        ratio = float(np.max(small[:3]) / np.max(large[:3]))
        # expect ~ sqrt(10); bootstrap noise with 16 reps keeps this loose
        assert 1.5 < ratio < 6.5

    def test_covers_true_error(self):
        n = 20_000
        samples = draws(LOSSY_TWO_PHOTON, n, seed=217)
        probs = ml_diagonal(samples).probs
        se = ml_diagonal(samples, MLConfig(), 16, 5).stderr
        pulls = np.abs(probs[:3] - LOSSY_TWO_PHOTON) / np.maximum(se[:3], 1e-12)
        assert float(np.max(pulls)) < 5.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ml_diagonal(np.array([]), MLConfig(), 16, 0)

    def test_matches_single_draw_loop(self):
        samples = draws(LOSSY_TWO_PHOTON, 20_000, seed=214)
        config = MLConfig()
        hist, pi = _histogram(samples, config)
        total = int(hist.sum())
        rng = np.random.default_rng(3)
        reps = [
            reference_em(rng.multinomial(total, hist / total).astype(float), pi, config)[0]
            for _ in range(16)
        ]
        expected = np.std(reps, axis=0, ddof=1)
        np.testing.assert_array_equal(ml_diagonal(samples, config, 16, 3).stderr, expected)

    def test_unconverged_replicates_warn(self):
        samples = draws(LOSSY_TWO_PHOTON, 2_000, seed=220)
        with pytest.warns(UserWarning, match="4 of 4 bootstrap replicates stopped unconverged"):
            ml_diagonal(samples, MLConfig(max_iters=5), 4, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ml_diagonal(samples, MLConfig(), 4, 0)

    @pytest.mark.parametrize("n_boot", [1])
    def test_needs_two_replicates(self, n_boot):
        with pytest.raises(OutOfRange, match="at least 2"):
            ml_diagonal(draws(LOSSY_TWO_PHOTON, 2_000, seed=219), MLConfig(), n_boot)


def with_far_tail(samples):
    """``samples`` plus one lone x far out in the tail, in a bin of its own."""
    return np.concatenate([samples[:, 0], [0.9 * X_MAX]])


class TestOneBatchFit:
    """A fit with bootstrap is one histogram, one POVM and one ``_em`` batch
    of the data row and its replicates."""

    CASES = {
        # (samples, n_boot, rng_seed); at seed 19 the lone tail sample's bin
        # is empty in all 4 resamples, so the data row occupies more bins
        # than any replicate
        "uniform": (lambda: draws(LOSSY_TWO_PHOTON, 20_000, seed=214), 16, 3),
        "far_tail": (lambda: with_far_tail(draws(LOSSY_TWO_PHOTON, 20_000, seed=214)), 4, 19),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_data_row_is_the_plain_fit(self, case):
        make, n_boot, seed = self.CASES[case]
        samples = make()
        fit = ml_diagonal(samples, MLConfig(), n_boot, seed)
        plain = ml_diagonal(samples, MLConfig())
        assert plain.stderr is None
        np.testing.assert_array_equal(fit.probs, plain.probs)
        np.testing.assert_array_equal(fit.ll_history, plain.ll_history)
        assert (fit.log_likelihood, fit.iterations, fit.converged, fit.cutoff) == (
            plain.log_likelihood, plain.iterations, plain.converged, plain.cutoff
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stderr_is_the_single_draw_loop(self, case):
        make, n_boot, seed = self.CASES[case]
        samples = make()
        config = MLConfig()
        hist, pi = _histogram(samples, config)
        total = int(hist.sum())
        rng = np.random.default_rng(seed)
        resampled = [rng.multinomial(total, hist / total).astype(float) for _ in range(n_boot)]
        if case == "far_tail":
            assert np.any((hist > 0) & ~np.any(resampled, axis=0))
        expected = np.std([reference_em(r, pi, config)[0] for r in resampled], axis=0, ddof=1)
        fit = ml_diagonal(samples, config, n_boot, seed)
        np.testing.assert_array_equal(fit.stderr, expected)

    @pytest.mark.parametrize("n_boot", [-1, 1])
    def test_one_replicate_has_no_spread(self, n_boot):
        with pytest.raises(OutOfRange, match="n_boot"):
            ml_diagonal(draws(LOSSY_TWO_PHOTON, 2_000, seed=219), MLConfig(), n_boot)

    def test_warning_counts_replicates_only(self):
        samples = draws(LOSSY_TWO_PHOTON, 2_000, seed=220)
        with pytest.warns(UserWarning, match="4 of 4 bootstrap replicates stopped unconverged"):
            fit = ml_diagonal(samples, MLConfig(max_iters=5), 4)
        assert not fit.converged and fit.iterations == 5


class TestMlConfig:
    def test_defaults(self):
        cfg = MLConfig()
        assert cfg.cutoff == 5 and cfg.n_bins == 256 and cfg.max_iters == 10_000

    def test_guards(self):
        with pytest.raises(CutoffExceeded):
            MLConfig(cutoff=1)
        with pytest.raises(OutOfRange):
            MLConfig(n_bins=32)
        with pytest.raises(OutOfRange):
            MLConfig(max_iters=0)
        with pytest.raises(OutOfRange):
            MLConfig(tol=0.0)
        with pytest.raises(OutOfRange):
            MLConfig(tol=math.nan)
