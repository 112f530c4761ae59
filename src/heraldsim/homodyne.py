"""Homodyne quadrature statistics and trace synthesis.

Quadrature convention: x = (a + a†)/sqrt(2), vacuum variance 1/2.  The
Fock-state quadrature densities are squared Hermite functions

    |psi_n(x)|**2,   psi_n(x) = H_n(x) exp(-x**2/2) / sqrt(2**n n! sqrt(pi)),

so <x**2> = (2n+1)/2 in Fock state n.  Samplers draw (x, theta) pairs with
the local-oscillator phase theta uniform on [0, 2*pi); x follows the
phase-conditional density Tr[rho |x,theta><x,theta|] via a tabulated
inverse CDF (diagonal states, through ``fock.photon_distribution``) or
cell-bounded rejection (single-mode states with coherences).  That density
is <v|rho|v> with v = ``phase_projectors(x, theta, dim)``, the one
projector the rejection test here and ``tomo.ml_full`` both evaluate.  The
joint two-mode sampler takes phase-independent states, which every
heralded pair state is.

Trace synthesis emulates a continuous homodyne record: white vacuum noise
with per-sample standard deviation sqrt(1/(2*dt)) whose components along
the two analysis modes are replaced by jointly drawn mode quadratures.
Projecting a trace onto any normalized mode with  sum(mode*trace)*dt
recovers that mode's quadrature statistics.  It is the physical reference
path that tests check the drivers against: projecting onto the first
analysis mode returns the joint draw's x1 to rounding, and x1 follows the
state reduced to that mode, which the drivers sample directly.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import PhotonDistribution
from .errors import (
    CutoffExceeded,
    EmptyInput,
    GridMismatch,
    InvalidDensity,
    ModesNotOrthogonal,
)
from .fock import check_density, photon_distribution
from .modes import HeraldPair, ModeFunction, TimeGrid

X_MAX = 8.0          # quadrature range [-X_MAX, X_MAX] covers all supported states
GRID_1D = 2 ** 14    # nodes of the 1-d tabulated CDF
GRID_2D = 512        # cells per axis of the 2-d joint sampler
MAX_FOCK = 16        # guard for the Hermite recurrence
REJECTION_GUARD = 1.02  # headroom of per-cell bounds over smooth variation


def hermite_function(n: int, x: np.ndarray | float) -> np.ndarray:
    """Normalized Hermite function psi_n evaluated by stable recurrence."""
    if not 0 <= n <= MAX_FOCK:
        raise CutoffExceeded(f"Fock index {n} outside [0, {MAX_FOCK}]")
    x = np.asarray(x, dtype=float)
    psi_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return psi_prev
    psi = math.sqrt(2.0) * x * psi_prev
    for k in range(1, n):
        psi, psi_prev = (
            math.sqrt(2.0 / (k + 1)) * x * psi - math.sqrt(k / (k + 1)) * psi_prev,
            psi,
        )
    return psi


def phase_projectors(x: np.ndarray, theta: np.ndarray, dim: int) -> np.ndarray:
    """Components psi_n(x) exp(i n theta), n < dim, of the projector on the
    outcome (x, theta): shape (dim, N) for N outcomes.  The outcome's
    probability in state rho is <v|rho|v> with v a column."""
    psi = np.stack([hermite_function(n, x) for n in range(dim)])
    return psi * np.exp(1j * np.outer(np.arange(dim), theta))


def fock_quadrature_pdf(n: int, x: np.ndarray | float) -> np.ndarray:
    """Quadrature density |psi_n(x)|**2 of Fock state n."""
    psi = hermite_function(n, x)
    return psi * psi


def mixture_pdf(dist: PhotonDistribution, x: np.ndarray | float) -> np.ndarray:
    """Phase-independent quadrature density of a Fock-diagonal state."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for n, p in enumerate(dist.probs):
        if p > 0.0:
            out += p * fock_quadrature_pdf(n, x)
    return out


def _tabulated_inverse_cdf(pdf_nodes: np.ndarray, xs: np.ndarray):
    """Piecewise-linear inverse CDF from pdf values on the node grid."""
    h = xs[1] - xs[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf_nodes[1:] + pdf_nodes[:-1]) * h)])
    total = cdf[-1]
    if total <= 0.0:
        raise InvalidDensity("quadrature density has no mass on the sampling range")
    cdf /= total

    def draw(u: np.ndarray) -> np.ndarray:
        return np.interp(u, cdf, xs)

    return draw


def _phase_blocks_1d(rho: np.ndarray, xs: np.ndarray):
    """Split p(x|theta) into phase harmonics.

    Returns (g0, harmonics) with p(x|theta) = g0(x) +
    2*sum_d Re[G_d(x) * exp(i*d*theta)], harmonics keyed by d > 0.
    """
    dim = rho.shape[0]
    psi = np.stack([hermite_function(n, xs) for n in range(dim)])
    g0 = np.zeros_like(xs)
    harmonics: dict[int, np.ndarray] = {}
    for m in range(dim):
        for n in range(dim):
            if rho[m, n] == 0.0:
                continue
            d = n - m
            term = rho[m, n] * psi[m] * psi[n]
            if d == 0:
                g0 += term.real
            elif d > 0:
                harmonics[d] = harmonics.get(d, np.zeros_like(xs, dtype=complex)) + term
    return g0, harmonics


def sample_quadratures(rho: np.ndarray, count: int, rng_seed: int) -> np.ndarray:
    """Draw ``count`` (x, theta) pairs from a single-mode density matrix.

    theta is uniform on [0, 2*pi).  For Fock-diagonal states x comes from
    the tabulated inverse CDF of the phase-independent mixture density;
    otherwise a per-cell bounded rejection sampler handles the
    phase-dependent coherence terms exactly.

    Returns an array of shape (count, 2) with columns (x, theta).
    Deterministic for a fixed seed.
    """
    if count <= 0:
        raise EmptyInput(f"sample count must be positive, got {count}")
    rho = np.asarray(rho, dtype=complex)
    check_density(rho)
    if rho.shape[0] - 1 > MAX_FOCK:
        raise CutoffExceeded(f"density matrix cutoff {rho.shape[0] - 1} > {MAX_FOCK}")
    rng = np.random.default_rng(rng_seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    xs = np.linspace(-X_MAX, X_MAX, GRID_1D)
    offdiag = rho - np.diag(np.diag(rho))
    if np.max(np.abs(offdiag)) < 1e-12:
        draw = _tabulated_inverse_cdf(mixture_pdf(photon_distribution(rho), xs), xs)
        x = draw(rng.uniform(0.0, 1.0, size=count))
        return np.column_stack([x, theta])

    # coherent case: rejection against a per-cell phase-independent bound;
    # the phases drawn above go unused, but the seeded draws below follow them
    g0, harmonics = _phase_blocks_1d(rho, xs)
    bound_nodes = g0 + sum(2.0 * np.abs(g) for g in harmonics.values())
    cell_bound = np.maximum(bound_nodes[1:], bound_nodes[:-1]) * REJECTION_GUARD
    propose = _cell_proposal(rng, xs, cell_bound * (xs[1] - xs[0]), cell_bound)
    dim = rho.shape[0]
    parts = []
    filled = 0
    while filled < count:
        # draw order per batch, which fixes the stream: cell, jitter, phase,
        # then u; a point is kept when u * bound <= p(x | theta)
        todo = count - filled
        batch = max(int(todo * 1.5) + 16, 64)
        (xv, tv), bound = propose(batch)
        u = rng.uniform(0.0, 1.0, size=batch)
        w = phase_projectors(xv, tv, dim)
        accept = u * bound <= np.real(np.einsum("in,ij,jn->n", w.conj(), rho, w))
        idx = np.nonzero(accept)[0][:todo]
        parts.append(np.column_stack([xv[idx], tv[idx]]))
        filled += idx.size
    return np.concatenate(parts)


def _cell_proposal(
    rng: np.random.Generator, edges: np.ndarray, weights: np.ndarray, bound: np.ndarray
):
    """Proposal ``propose(n) -> ((x_1, ..., x_k, theta), cell bounds)``: cells
    drawn in proportion to ``weights``, a uniform jitter inside each cell on
    every axis of the uniform grid ``edges``, then a uniform phase."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    h = edges[1] - edges[0]

    def propose(n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        cell = np.unravel_index(np.searchsorted(cdf, rng.uniform(0.0, 1.0, size=n)), bound.shape)
        xs = tuple(edges[i] + h * rng.uniform(0.0, 1.0, size=n) for i in cell)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return xs + (theta,), bound[cell]

    return propose


def joint_sample_two_modes(rho2: np.ndarray, count: int, rng_seed: int) -> np.ndarray:
    """Draw ``count`` joint quadrature triples (x1, x2, theta) of two modes
    measured with a shared local-oscillator phase.

    The joint density is evaluated on a 512 x 512 cell grid over
    [-8, 8]^2 and sampled by inverse CDF over the flattened grid (with
    uniform jitter inside cells).  A shared phase theta rotates both modes
    together, so the density is independent of theta exactly when every
    coherence connects equal total photon numbers m + n.  Heralded pair
    states, and Fock-diagonal states of either mode, are of that kind; any
    other state raises InvalidDensity.

    Returns an array of shape (count, 3).  Deterministic for a fixed seed.
    """
    if count <= 0:
        raise EmptyInput(f"sample count must be positive, got {count}")
    rho2 = np.asarray(rho2, dtype=complex)
    check_density(rho2)
    d = int(round(math.sqrt(rho2.shape[0])))
    if d * d != rho2.shape[0]:
        raise InvalidDensity(f"two-mode matrix dimension {rho2.shape[0]} is not a square")
    r4 = rho2.reshape(d, d, d, d)  # indices (m, n, m', n')
    totals = np.add.outer(np.arange(d), np.arange(d))  # m + n
    same_total = np.subtract.outer(totals, totals) == 0
    phase_dependent = float(np.max(np.abs(r4[~same_total]), initial=0.0))
    if phase_dependent > 1e-12:
        raise InvalidDensity(
            f"coherence {phase_dependent:.2e} between unequal total photon numbers; "
            "the joint sampler needs a phase-independent density"
        )
    rng = np.random.default_rng(rng_seed)
    edges = np.linspace(-X_MAX, X_MAX, GRID_2D + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    psi = np.stack([hermite_function(n, centers) for n in range(d)])  # (d, G)
    g0 = np.einsum("mnop,ma,oa,nb,pb->ab", r4 * same_total, psi, psi, psi, psi, optimize=True)
    g0 = np.clip(g0.real, 0.0, None)
    return np.column_stack(_cell_proposal(rng, edges, g0, g0)(count)[0])


def _check_analysis_pair(f1: ModeFunction, f2: ModeFunction) -> None:
    if f1.grid != f2.grid:
        raise GridMismatch("analysis modes on different grids")
    if not (f1.normalized and f2.normalized):
        raise ModesNotOrthogonal("analysis modes must be normalized")
    ov = float(np.dot(f1.samples, f2.samples)) * f1.grid.dt
    if abs(ov) > 1e-9:
        raise ModesNotOrthogonal(f"analysis modes overlap {ov:.2e} > 1e-9")


def synthesize_trace_batch(
    rho2: np.ndarray,
    f1: ModeFunction,
    f2: ModeFunction,
    herald: HeraldPair,
    count: int,
    rng_seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized trace synthesis: (traces, quadrature pairs, phases).

    A white Gaussian record with per-sample standard deviation
    sqrt(1/(2*dt)) carries vacuum statistics in every normalized mode; its
    components along f1 and f2 are replaced by a joint draw from ``rho2``.
    ``traces`` has shape (count, n_samples); row k carries the joint draw
    (quads[k, 0], quads[k, 1]) in modes (f1, f2) and vacuum elsewhere.
    """
    _check_analysis_pair(f1, f2)
    grid = f1.grid
    dt = grid.dt
    joint = joint_sample_two_modes(rho2, count, rng_seed)
    # independent stream for the vacuum record so mode draws stay aligned
    # with the joint sampler regardless of trace length
    noise_rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(1,)))
    sigma = math.sqrt(1.0 / (2.0 * dt))
    traces = noise_rng.normal(0.0, sigma, size=(count, grid.n_samples))
    for mode, col in ((f1, 0), (f2, 1)):
        current = traces @ mode.samples * dt
        traces += np.outer(joint[:, col] - current, mode.samples)
    return traces, joint[:, :2], joint[:, 2]


def project_trace(traces: np.ndarray, xi: ModeFunction, grid: TimeGrid | None = None) -> np.ndarray:
    """Project trace rows onto a normalized mode: sum(xi * trace) * dt.

    ``grid``, when given, is the grid the traces were recorded on; it must
    be the mode's.
    """
    if grid is not None and grid != xi.grid:
        raise GridMismatch("trace and analysis mode on different grids")
    arr = np.asarray(traces, dtype=float)
    if arr.shape[-1] != xi.grid.n_samples:
        raise GridMismatch("trace length does not match analysis grid")
    return arr @ xi.samples * xi.grid.dt
