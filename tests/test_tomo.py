"""Maximum-likelihood photon-number tomography: binned POVM, EM fixed
point, observed-information errors.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from heraldsim.analytic import apply_loss, fixed_mode_distribution
from heraldsim.errors import (
    CutoffExceeded,
    EmptyInput,
    InsufficientStatistics,
    InvalidDensity,
    OutOfRange,
)
from heraldsim.homodyne import X_MAX, sample_quadratures
from heraldsim.modes import overlap_closed_form
from heraldsim.tomo import (
    MLConfig,
    _em,
    _histogram,
    build_povm,
    ml_diagonal,
    ml_diagonal_batch,
)

from conftest import ETA, GAMMA

LOSSY_TWO_PHOTON = np.array([0.0576, 0.3648, 0.5776])


def draws(probs, count, seed):
    rho = np.diag(np.asarray(probs, dtype=float)).astype(complex)
    return sample_quadratures(rho, count, rng_seed=seed)


def binned(samples, config):
    """The histogram of ``samples`` and the POVM elements of its binning."""
    povm = build_povm(config.cutoff, config.n_bins)
    return _histogram(samples, povm), povm.elements


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
        rows = [binned(draws(p, n, seed), config) for p, n, seed in sets]
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
            # same products per row; only the stopping rule's log-likelihood
            # sums over the batch's occupied bins, the final one over the row's
            np.testing.assert_array_equal(probs[b], ref_probs)
            assert ll[b] == ref_ll
            assert history[b].shape == (ref_iters + 1,)
            np.testing.assert_allclose(history[b], ref_history, rtol=1e-12)
            assert history[b][-1] == ll[b]

    def test_single_row_is_the_loop_bit_for_bit(self):
        samples = draws(LOSSY_TWO_PHOTON, 20_000, seed=226)
        hist, pi = binned(samples, MLConfig())
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
        # a multinomial resample of the default fixed-mode sweep's histogram
        # at 30 ns (mode g1, seeds of config seed 5) needs 2,079 iterations;
        # the old 2,000-iteration budget returned it unconverged
        probs = apply_loss(fixed_mode_distribution(overlap_closed_form(30e-9, GAMMA)), ETA).probs
        hist, pi = binned(draws(probs, 100_000, seed=6777710724561418609), MLConfig())
        rng = np.random.default_rng(8108440146360779095)
        replicate = rng.multinomial(100_000, hist / 100_000, size=16)[14].astype(float)
        _, _, iters, converged, _ = _em(replicate[None, :], pi, MLConfig())
        assert converged[0] and 2_000 < iters[0] <= MLConfig().max_iters
        _, _, _, converged, _ = _em(replicate[None, :], pi, MLConfig(max_iters=2_000))
        assert not converged[0]


def finite_difference_stderr(hist, pi, probs, free, eps):
    """sqrt of the diagonal of the inverse central finite-difference Hessian
    of the log-likelihood sum(hist * log(P . Pi)) over the weights ``free``,
    P_0 taking up each step, and of 1^T H^-1 1 for P_0."""
    p = probs @ pi

    def shifted(steps):
        # the log-likelihood's change, as a sum of log1p terms so that the
        # four corners do not cancel in the last bits
        delta = np.zeros_like(probs)
        delta[list(free)] = steps
        delta[0] = -np.sum(steps)
        return float(np.sum(hist * np.log1p((delta @ pi) / p)))

    k = len(free)
    hessian = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            corners = []
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                steps = np.zeros(k)
                steps[a] += sa * eps
                steps[b] += sb * eps
                corners.append(shifted(steps))
            hessian[a, b] = (corners[0] - corners[1] - corners[2] + corners[3]) / (4 * eps * eps)
    cov = np.linalg.inv(-hessian)
    return np.sqrt(np.diag(cov)), math.sqrt(cov.sum())


class TestBootstrapStderr:
    """``ml_diagonal``'s stderr.  A bootstrap spread gave it before the
    observed information of the binned likelihood did; the class keeps its
    name so that these checks keep their ids."""

    def test_positive_and_deterministic(self):
        samples = draws(LOSSY_TWO_PHOTON, 20_000, seed=214)
        a = ml_diagonal(samples).stderr
        b = ml_diagonal(samples).stderr
        np.testing.assert_array_equal(a, b)
        assert a.shape == (6,)
        assert np.all(a > 0.0)

    def test_scales_with_sample_size(self):
        small = ml_diagonal(draws(LOSSY_TWO_PHOTON, 4_000, seed=215)).stderr
        large = ml_diagonal(draws(LOSSY_TWO_PHOTON, 40_000, seed=216)).stderr
        ratio = float(np.max(small[:3]) / np.max(large[:3]))
        # expect ~ sqrt(10) = 3.16; over 200 other seed pairs of these sizes
        # the ratio spans 3.05-3.24
        assert 3.0 < ratio < 3.3

    def test_covers_true_error(self):
        n = 20_000
        samples = draws(LOSSY_TWO_PHOTON, n, seed=217)
        fit = ml_diagonal(samples)
        pulls = np.abs(fit.probs[:3] - LOSSY_TWO_PHOTON) / fit.stderr[:3]
        assert float(np.max(pulls)) < 5.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ml_diagonal(np.array([]))

    @pytest.mark.parametrize("case", ["interior", "boundary"])
    def test_matches_finite_difference_hessian(self, case):
        # P_1, P_2 free (and P_n with them for n >= 3), the rest held; at the
        # boundary the true P_2 is 0 and its estimate sits near it
        probs = LOSSY_TWO_PHOTON if case == "interior" else np.array([0.24, 0.76, 0.0])
        samples = draws(probs, 20_000, seed=221)
        hist, pi = binned(samples, MLConfig())
        fit = ml_diagonal(samples)
        (se1, se2), se0 = finite_difference_stderr(hist, pi, fit.probs, (1, 2), eps=1e-6)
        np.testing.assert_allclose(fit.stderr[:3], [se0, se1, se2], rtol=1e-6)
        for n in range(3, 6):
            (_, _, se_n), _ = finite_difference_stderr(hist, pi, fit.probs, (1, 2, n), eps=1e-6)
            assert fit.stderr[n] == pytest.approx(se_n, rel=1e-6)

    def test_does_not_collapse_at_the_boundary(self):
        # no two-photon weight at all: the estimate of P_2 sits at or near
        # 0, and its error stays that of the 1e5 counts, not of the estimate
        fit = ml_diagonal(draws([0.24, 0.76, 0.0], 100_000, seed=222))
        assert fit.probs[2] < 0.005
        assert 1e-3 < fit.stderr[2] < 3e-3

    @pytest.mark.parametrize("samples", [[0.3], [0.3] * 5000, [0.3, -1.2] * 2000],
                             ids=["one_sample", "one_bin", "two_bins"])
    def test_too_few_bins_raise(self, samples):
        # the information has rank at most the number of occupied bins
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InsufficientStatistics, match="not positive definite"):
                ml_diagonal(np.array(samples))


def with_far_tail(samples):
    """``samples`` plus one lone x far out in the tail, in a bin of its own."""
    return np.concatenate([samples[:, 0], [0.9 * X_MAX]])


class TestOneBatchFit:
    """A fit is one histogram, one POVM and one ``_em`` call on the one
    data row."""

    CASES = {
        "uniform": lambda: draws(LOSSY_TWO_PHOTON, 20_000, seed=214),
        # a lone tail sample in a bin of its own, where p is tiny
        "far_tail": lambda: with_far_tail(draws(LOSSY_TWO_PHOTON, 20_000, seed=214)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_data_row_is_the_plain_fit(self, case):
        samples = self.CASES[case]()
        config = MLConfig()
        hist, pi = binned(samples, config)
        ref_probs, ref_ll, ref_iters, ref_converged, ref_history = reference_em(hist, pi, config)
        fit = ml_diagonal(samples, config)
        np.testing.assert_array_equal(fit.probs, ref_probs)
        np.testing.assert_array_equal(fit.ll_history, ref_history)
        assert (fit.log_likelihood, fit.iterations, fit.converged, fit.cutoff) == (
            ref_ll, ref_iters, ref_converged, config.cutoff
        )
        assert np.all(np.isfinite(fit.stderr)) and np.all(fit.stderr > 0.0)

    def test_warning_counts_replicates_only(self):
        # a fit that stops at its budget says so in ``converged``; with no
        # resampled replicates there is nothing to warn about
        samples = draws(LOSSY_TWO_PHOTON, 2_000, seed=220)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = ml_diagonal(samples, MLConfig(max_iters=5))
        assert not fit.converged and fit.iterations == 5


class TestDiagonalBatch:
    """``ml_diagonal_batch`` fits many sample sets in one ``_em`` batch, and
    each result is ``ml_diagonal`` of its set alone."""

    # vacuum occupies fewer bins than the mixtures; at a 400-iteration
    # budget the sets stop at different iterations and one never converges
    SETS = [
        (LOSSY_TWO_PHOTON, 2_000, 231),
        ([1.0], 5_000, 232),
        ([0.0, 1.0], 5_000, 233),
        ([0.3, 0.3, 0.4], 50_000, 234),
        (LOSSY_TWO_PHOTON, 20_000, 235),
    ]

    def test_each_result_is_its_own_fit(self):
        config = MLConfig(max_iters=400, tol=1e-9)
        sets = [draws(p, n, seed) for p, n, seed in self.SETS]
        occupied = {int(np.count_nonzero(binned(x, config)[0])) for x in sets}
        assert len(occupied) > 1
        results = ml_diagonal_batch((x for x in sets), config)
        assert len(results) == len(sets)
        assert len({r.iterations for r in results}) > 2
        assert any(r.converged for r in results)
        assert any(not r.converged and r.iterations == config.max_iters for r in results)
        for x, batched in zip(sets, results):
            alone = ml_diagonal(x, config)
            np.testing.assert_array_equal(batched.probs, alone.probs)
            np.testing.assert_array_equal(batched.stderr, alone.stderr)
            assert (batched.iterations, batched.converged, batched.cutoff) == (
                alone.iterations, alone.converged, alone.cutoff
            )
            assert batched.log_likelihood == alone.log_likelihood
            assert batched.ll_history[-1] == batched.log_likelihood

    def test_no_sets(self):
        assert ml_diagonal_batch([], MLConfig()) == []

    def test_a_thin_set_warns(self):
        sets = [draws(LOSSY_TWO_PHOTON, 5_000, seed=236), draws(LOSSY_TWO_PHOTON, 500, seed=237)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = ml_diagonal_batch(sets, MLConfig())
        assert [str(w.message) for w in caught] == [
            "only 500 samples; estimates below ~1e3 samples are noisy"
        ]
        assert len(results) == 2

    def test_a_set_in_two_bins_raises(self):
        sets = [draws(LOSSY_TWO_PHOTON, 5_000, seed=238), np.array([0.3, -1.2] * 2000)]
        with pytest.raises(InsufficientStatistics, match="4000 samples in 2 bins"):
            ml_diagonal_batch(sets, MLConfig())

    @pytest.mark.parametrize("bad, error", [(np.array([]), EmptyInput), (np.array([np.nan]), OutOfRange)])
    def test_a_bad_set_raises(self, bad, error):
        with pytest.raises(error):
            ml_diagonal_batch([draws(LOSSY_TWO_PHOTON, 5_000, seed=239), bad], MLConfig())


class TestHistogram:
    """``_histogram`` searches the samples for the inner edges, sorting them
    first unless they are already non-decreasing; whatever their order, it
    must put every x where ``searchsorted(edges, x, side="right") - 1``
    does."""

    @pytest.mark.parametrize("n_bins", [64, 256, 1000])
    def test_bit_equal_to_searchsorted(self, n_bins):
        povm = build_povm(MLConfig().cutoff, n_bins)
        edges = povm.edges
        x = np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            # both clip ends, and beyond them
            [edges[-1] - 1e-12, np.nextafter(edges[-1] - 1e-12, -np.inf), -2 * X_MAX, 2 * X_MAX,
             -1e300, 1e300],
            np.random.default_rng(n_bins).uniform(-X_MAX, X_MAX, 10_000),
        ])
        clipped = np.clip(x, edges[0], edges[-1] - 1e-12)
        expected = np.bincount(np.searchsorted(edges, clipped, side="right") - 1, minlength=n_bins)
        hist = _histogram(x, povm)
        np.testing.assert_array_equal(hist, expected)
        # and sample by sample, each x alone
        for value in x[: 3 * edges.size]:
            (k,) = np.flatnonzero(_histogram(np.array([value]), povm))
            assert k == np.searchsorted(edges, min(max(value, edges[0]), edges[-1] - 1e-12), side="right") - 1

    def test_order_is_checked_not_trusted(self):
        povm = build_povm(MLConfig().cutoff, 64)
        x = np.sort(np.random.default_rng(5).normal(0.0, 2.0, 20_000))
        # one adjacent pair out of order, across a bin edge, breaks only
        # what the order check would otherwise let through
        k = int(np.searchsorted(x, povm.edges[32]))
        swapped = x.copy()
        swapped[[k - 1, k]] = swapped[[k, k - 1]]
        expected = _histogram(x, povm)
        assert expected.sum() == x.size
        for order in (x[::-1], swapped, np.random.default_rng(6).permutation(x)):
            np.testing.assert_array_equal(_histogram(order, povm), expected)


class TestMlConfig:
    def test_defaults(self):
        cfg = MLConfig()
        assert cfg.cutoff == 5 and cfg.n_bins == 256 and cfg.max_iters == 10_000

    def test_guards(self):
        with pytest.raises(CutoffExceeded):
            MLConfig(cutoff=1)
        with pytest.raises(CutoffExceeded):
            MLConfig(cutoff=17)
        with pytest.raises(OutOfRange):
            MLConfig(n_bins=32)
        with pytest.raises(OutOfRange):
            MLConfig(max_iters=0)
        with pytest.raises(OutOfRange):
            MLConfig(tol=0.0)
        with pytest.raises(OutOfRange):
            MLConfig(tol=math.nan)
