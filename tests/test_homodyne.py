"""Homodyne synthesis: Hermite functions, quadrature samplers, trace
synthesis and projection.  Conventions: x = (a + a*)/sqrt(2), vacuum
variance 1/2, white trace noise std sqrt(1/(2*dt)).

Reference constants were computed with mpmath at 50 digits; see
scripts/compute_reference_values.py.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import heraldsim
from heraldsim.analytic import PhotonDistribution
from heraldsim.errors import (
    CutoffExceeded,
    EmptyInput,
    GridMismatch,
    InvalidDensity,
    ModesNotOrthogonal,
)
from heraldsim.fock import ModeRegister, apply_loss_channel, build_heralded_state, reduce_to_mode_pair
from heraldsim.homodyne import (
    GRID_1D,
    MAX_FOCK,
    X_MAX,
    _node_pdf,
    fock_quadrature_pdf,
    hermite_function,
    joint_sample_two_modes,
    mixture_pdf,
    photon_distribution,
    project_trace,
    quadrature_values,
    sample_quadratures,
    synthesize_trace_batch,
)
from heraldsim.modes import (
    HeraldPair,
    extend_orthonormal_basis,
    make_symmetric_antisymmetric,
    make_trigger_mode,
    overlap,
)

from conftest import ETA, GAMMA, MID, herald_times

PSI0_SQ_AT_0 = 0.564189583548   # 1/sqrt(pi)
PSI2_SQ_AT_0 = 0.282094791774   # 1/(2*sqrt(pi))
# mixture density at x = 0 for the lossy two-photon weights (0.0576, 0.3648, 0.5776)
MIXTURE_AT_0 = 0.195435271741

# 1% two-sided Kolmogorov-Smirnov critical value: D * sqrt(N) < 1.628
KS_CRIT_1PC = 1.628


def vacuum_two_mode(n_max: int = 2) -> np.ndarray:
    """Product vacuum of two modes on the (n_max+1)**2 product basis."""
    d = n_max + 1
    rho = np.zeros((d * d, d * d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def ks_statistic(samples: np.ndarray, dist: PhotonDistribution) -> float:
    """KS distance between samples and a Fock-mixture quadrature law."""
    xs = np.linspace(-X_MAX, X_MAX, 4001)
    pdf = mixture_pdf(dist, xs)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    u = np.interp(np.sort(samples), xs, cdf)
    n = samples.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(ecdf_hi - u, u - ecdf_lo)))


class TestHermiteFunctions:
    def test_ground_state_peak(self):
        assert fock_quadrature_pdf(0, 0.0) == pytest.approx(PSI0_SQ_AT_0, abs=1e-10)

    def test_two_photon_at_origin(self):
        assert fock_quadrature_pdf(2, 0.0) == pytest.approx(PSI2_SQ_AT_0, abs=1e-10)

    def test_odd_states_vanish_at_origin(self):
        assert hermite_function(1, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert hermite_function(3, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_orthonormality(self):
        xs = np.linspace(-X_MAX, X_MAX, 4001)
        psis = [hermite_function(n, xs) for n in range(6)]
        for m in range(6):
            for n in range(6):
                ip = np.trapezoid(psis[m] * psis[n], xs)
                assert ip == pytest.approx(1.0 if m == n else 0.0, abs=1e-8)

    def test_recurrence_stable_at_max(self):
        vals = hermite_function(MAX_FOCK, np.linspace(-X_MAX, X_MAX, 101))
        assert np.all(np.isfinite(vals))

    def test_cutoff_guard(self):
        with pytest.raises(CutoffExceeded):
            hermite_function(MAX_FOCK + 1, 0.0)
        with pytest.raises(CutoffExceeded):
            hermite_function(-1, 0.0)


class TestQuadraturePdfs:
    @pytest.mark.parametrize("n", range(5))
    def test_normalization_and_second_moment(self, n):
        xs = np.linspace(-X_MAX, X_MAX, 8001)
        pdf = fock_quadrature_pdf(n, xs)
        assert np.trapezoid(pdf, xs) == pytest.approx(1.0, abs=1e-8)
        # <x**2> = (2n + 1)/2 in the vacuum-variance-1/2 convention
        assert np.trapezoid(xs * xs * pdf, xs) == pytest.approx(
            (2 * n + 1) / 2.0, abs=1e-6
        )

    def test_mixture_value_frozen(self):
        dist = PhotonDistribution(np.array([0.0576, 0.3648, 0.5776]))
        assert mixture_pdf(dist, 0.0) == pytest.approx(MIXTURE_AT_0, abs=1e-10)

    def test_mixture_is_convex_combination(self):
        dist = PhotonDistribution(np.array([0.25, 0.75]))
        xs = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(
            mixture_pdf(dist, xs),
            0.25 * fock_quadrature_pdf(0, xs) + 0.75 * fock_quadrature_pdf(1, xs),
            atol=1e-15,
        )


class TestSampleQuadratures:
    def test_vacuum_moments(self):
        rho = np.array([[1.0]], dtype=complex)
        samples = sample_quadratures(rho, 100_000, rng_seed=11)
        assert samples.shape == (100_000, 2)
        x = samples[:, 0]
        assert np.mean(x) == pytest.approx(0.0, abs=0.01)
        assert np.var(x) == pytest.approx(0.5, abs=0.01)

    def test_single_photon_second_moment(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        x = sample_quadratures(rho, 100_000, rng_seed=12)[:, 0]
        assert np.mean(x * x) == pytest.approx(1.5, abs=0.02)

    def test_phases_cover_circle(self):
        rho = np.array([[1.0]], dtype=complex)
        theta = sample_quadratures(rho, 50_000, rng_seed=13)[:, 1]
        assert theta.min() >= 0.0 and theta.max() < 2 * math.pi
        assert np.mean(theta) == pytest.approx(math.pi, abs=0.03)

    def test_mixture_ks(self):
        dist = PhotonDistribution(np.array([0.0576, 0.3648, 0.5776]))
        rho = np.diag(dist.probs).astype(complex)
        x = sample_quadratures(rho, 100_000, rng_seed=14)[:, 0]
        d = ks_statistic(x, dist)
        assert d * math.sqrt(x.size) < KS_CRIT_1PC

    def test_coherent_superposition_rejected(self):
        # (|0> + |1>)/sqrt(2) has E[x | theta] = cos(theta)/sqrt(2): its
        # quadrature density depends on the phase
        rho = 0.5 * np.ones((2, 2), dtype=complex)
        with pytest.raises(InvalidDensity, match="Fock-diagonal"):
            sample_quadratures(rho, 100, rng_seed=15)

    def test_deterministic(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        a = sample_quadratures(rho, 1000, rng_seed=42)
        b = sample_quadratures(rho, 1000, rng_seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_quadratures(rho, 1000, rng_seed=43)
        assert not np.array_equal(a, c)

    def test_input_guards(self):
        rho = np.array([[1.0]], dtype=complex)
        with pytest.raises(EmptyInput):
            sample_quadratures(rho, 0, rng_seed=1)
        with pytest.raises(InvalidDensity):
            sample_quadratures(np.diag([0.7, 0.7]).astype(complex), 10, rng_seed=1)


def tabulated_cdf(rho):
    """The sampler's nodes and normalized trapezoid-rule CDF for ``rho``."""
    xs = np.linspace(-X_MAX, X_MAX, GRID_1D)
    pdf = mixture_pdf(photon_distribution(rho), xs)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * (xs[1] - xs[0]))])
    return xs, cdf / cdf[-1]


class TestSortedLookup:
    """``sample_quadratures`` must give, bit for bit, the draws of a plain
    ``np.interp`` of the uniforms in draw order on the tabulated CDF, the
    stream that ``quadrature_values`` looks up in ascending order."""

    # vacuum has the widest flat tails (2,590 repeated CDF nodes), the
    # lossy two-photon state about as many as a default sweep point
    STATES = {
        "vacuum": [1.0],
        "lossy_two_photon": [0.0576, 0.3648, 0.5776],
        "five_photons": [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    }

    @pytest.mark.parametrize("state", sorted(STATES))
    # 500 queries are fewer than the nodes, where np.interp finds each slope
    # as it goes rather than tabulating them all first
    @pytest.mark.parametrize("count", [1, 500, 100_000])
    def test_sampler_is_the_unsorted_lookup(self, state, count):
        rho = np.diag(self.STATES[state]).astype(complex)
        xs, cdf = tabulated_cdf(rho)
        assert np.count_nonzero(np.diff(cdf) == 0.0) > 1000
        rng = np.random.default_rng(31)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
        x = np.interp(rng.uniform(0.0, 1.0, size=count), cdf, xs)
        samples = sample_quadratures(rho, count, rng_seed=31)
        np.testing.assert_array_equal(samples, np.column_stack([x, theta]))


class TestNodeTables:
    """The sampler's |psi_n|**2 tables on the CDF nodes: one per n, built on
    first use, never by the import, and not writable by any caller."""

    def test_built_once_per_n_and_read_only(self):
        table = _node_pdf(3)
        assert _node_pdf(3) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
        np.testing.assert_array_equal(table, fock_quadrature_pdf(3, np.linspace(-X_MAX, X_MAX, GRID_1D)))

    def test_import_builds_none(self):
        code = "import heraldsim; from heraldsim.homodyne import _node_pdf; print(_node_pdf.cache_info().currsize)"
        src = str(Path(heraldsim.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.stdout.strip() == "0"


class TestQuadratureValues:
    """``quadrature_values`` holds the x column of ``sample_quadratures``
    bit for bit, as a multiset, and refuses what it refuses."""

    @pytest.mark.parametrize("state", sorted(TestSortedLookup.STATES))
    @pytest.mark.parametrize("count", [1, 500, 100_000])
    def test_same_values_as_the_sampler(self, state, count):
        rho = np.diag(TestSortedLookup.STATES[state]).astype(complex)
        values = quadrature_values(rho, count, rng_seed=31)
        samples = sample_quadratures(rho, count, rng_seed=31)
        assert values.shape == (count,)
        np.testing.assert_array_equal(np.sort(values), np.sort(samples[:, 0]))

    @pytest.mark.parametrize(
        "rho, count, error",
        [
            (np.array([[1.0]], dtype=complex), 0, EmptyInput),
            (np.diag([0.7, 0.7]).astype(complex), 10, InvalidDensity),
            (0.5 * np.ones((2, 2), dtype=complex), 10, InvalidDensity),
            (np.diag(np.full(MAX_FOCK + 2, 1.0 / (MAX_FOCK + 2))).astype(complex), 10, CutoffExceeded),
        ],
        ids=["no_samples", "trace", "coherence", "cutoff"],
    )
    def test_same_errors_as_the_sampler(self, rho, count, error):
        messages = []
        for sampler in (sample_quadratures, quadrature_values):
            with pytest.raises(error) as info:
                sampler(rho, count, rng_seed=1)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestJointSampling:
    def test_product_vacuum_uncorrelated(self):
        samples = joint_sample_two_modes(vacuum_two_mode(), 100_000, rng_seed=21)
        assert samples.shape == (100_000, 3)
        x1, x2 = samples[:, 0], samples[:, 1]
        assert np.var(x1) == pytest.approx(0.5, abs=0.01)
        assert np.var(x2) == pytest.approx(0.5, abs=0.01)
        assert abs(np.corrcoef(x1, x2)[0, 1]) < 0.02

    def test_heralded_pair_marginal_ks(self, grid, pair40):
        g1, g2 = pair40
        f1, f2 = make_symmetric_antisymmetric(g1, g2)
        state = build_heralded_state(ModeRegister(modes=(f1, f2)), g1, g2)
        rho2 = reduce_to_mode_pair(apply_loss_channel(state, ETA), f1, f2)
        samples = joint_sample_two_modes(rho2, 100_000, rng_seed=22)
        # marginal of mode 1: partial trace over mode 2 is diagonal
        marg = np.real(np.einsum("ikjk->ij", rho2.reshape(3, 3, 3, 3)))
        dist = PhotonDistribution(np.clip(np.real(np.diag(marg)), 0, None))
        d = ks_statistic(samples[:, 0], dist)
        assert d * math.sqrt(samples.shape[0]) < KS_CRIT_1PC

    def test_coherent_superposition_rejected(self):
        # (|00> + |10>)/sqrt(2): mode 1 holds a coherence between unequal
        # total photon numbers, so the joint density depends on the phase
        psi = np.zeros(9)
        psi[[0, 3]] = 1.0 / math.sqrt(2.0)
        with pytest.raises(InvalidDensity, match="unequal total photon numbers"):
            joint_sample_two_modes(np.outer(psi, psi), 100, rng_seed=23)

    def test_deterministic(self):
        a = joint_sample_two_modes(vacuum_two_mode(), 500, rng_seed=5)
        b = joint_sample_two_modes(vacuum_two_mode(), 500, rng_seed=5)
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def scene(grid, pair40):
    g1, g2 = pair40
    f1, f2 = make_symmetric_antisymmetric(g1, g2)
    state = build_heralded_state(ModeRegister(modes=(f1, f2)), g1, g2)
    rho2 = reduce_to_mode_pair(apply_loss_channel(state, ETA), f1, f2)
    herald = HeraldPair(*herald_times(40e-9))
    return g1, g2, f1, f2, rho2, herald


class TestTraceSynthesis:
    def test_projection_round_trip(self, scene):
        g1, g2, f1, f2, rho2, herald = scene
        traces, quads, thetas = synthesize_trace_batch(rho2, f1, f2, herald, 64, rng_seed=31)
        np.testing.assert_allclose(project_trace(traces, f1, grid=f1.grid), quads[:, 0], atol=1e-9)
        np.testing.assert_allclose(project_trace(traces, f2, grid=f2.grid), quads[:, 1], atol=1e-9)

    def test_projection_linear_in_mode(self, scene):
        g1, g2, f1, f2, rho2, herald = scene
        traces, quads, _ = synthesize_trace_batch(rho2, f1, f2, herald, 16, rng_seed=32)
        c1, c2 = overlap(g1, f1), overlap(g1, f2)
        np.testing.assert_allclose(
            project_trace(traces, g1, grid=g1.grid),
            c1 * quads[:, 0] + c2 * quads[:, 1],
            atol=1e-9,
        )

    def test_orthogonal_mode_carries_vacuum(self, grid, scene):
        g1, g2, f1, f2, rho2, herald = scene
        spectator = extend_orthonormal_basis([f1, f2], grid, 3)[2]
        vals = []
        for k in range(4):  # chunks keep memory bounded
            traces, *_ = synthesize_trace_batch(rho2, f1, f2, herald, 2000, rng_seed=300 + k)
            vals.append(project_trace(traces, spectator, grid=grid))
        v = np.concatenate(vals)
        assert np.var(v) == pytest.approx(0.5, abs=0.03)
        assert np.mean(v) == pytest.approx(0.0, abs=0.03)

    def test_deterministic(self, scene):
        g1, g2, f1, f2, rho2, herald = scene
        a, qa, _ = synthesize_trace_batch(rho2, f1, f2, herald, 8, rng_seed=34)
        b, qb, _ = synthesize_trace_batch(rho2, f1, f2, herald, 8, rng_seed=34)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(qa, qb)

    def test_rejects_non_orthogonal_pair(self, scene):
        g1, g2, f1, f2, rho2, herald = scene
        with pytest.raises(ModesNotOrthogonal):
            synthesize_trace_batch(rho2, f1, f1, herald, 2, rng_seed=35)

    def test_white_noise_level(self, scene):
        # raw per-sample variance is dominated by the 1/(2*dt) vacuum noise
        g1, g2, f1, f2, rho2, herald = scene
        traces, *_ = synthesize_trace_batch(rho2, f1, f2, herald, 8, rng_seed=36)
        dt = f1.grid.dt
        assert np.var(traces) == pytest.approx(1.0 / (2.0 * dt), rel=0.05)

    def test_projection_grid_guard(self, grid, scene):
        g1, g2, f1, f2, rho2, herald = scene
        traces, *_ = synthesize_trace_batch(rho2, f1, f2, herald, 2, rng_seed=37)
        from heraldsim.modes import default_grid

        other = default_grid(dt=0.2e-9)
        with pytest.raises(GridMismatch):
            project_trace(traces, f1, grid=other)
        with pytest.raises(GridMismatch):
            project_trace(traces[:, :-1], f1)
        with pytest.raises(GridMismatch):
            project_trace(traces, make_trigger_mode(MID, GAMMA, other))
