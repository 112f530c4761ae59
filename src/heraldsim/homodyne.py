"""Homodyne quadrature statistics and trace synthesis.

Quadrature convention: x = (a + a†)/sqrt(2), vacuum variance 1/2.  The
Fock-state quadrature densities are squared Hermite functions

    |psi_n(x)|**2,   psi_n(x) = H_n(x) exp(-x**2/2) / sqrt(2**n n! sqrt(pi)),

so <x**2> = (2n+1)/2 in Fock state n.  Samplers draw (x, theta) pairs with
the local-oscillator phase theta uniform on [0, 2*pi).  Light heralded from
a continuous-wave source has no phase reference, so every state sampled
here is phase-independent: a single-mode state is Fock-diagonal, and x
follows its mixture density through a tabulated inverse CDF; a two-mode
state has coherences only between equal total photon numbers, which every
heralded pair state has.  Either sampler raises InvalidDensity for any
other state.  ``sample_quadratures`` keeps each x in draw order beside
its theta; ``quadrature_values`` gives the same x values without their
phases, in the order of their sorted uniforms, which is all a histogram
needs.  Both take their checks, CDF and generator from
``_quadrature_draw``, which sums the state's weights over |psi_n|**2
tables on the fixed CDF nodes, each built on first use and kept.
``quadrature_values`` jumps the generator past the theta block that
``sample_quadratures`` draws first, so it draws the same uniforms.

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

import functools
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


@functools.cache
def _node_pdf(n: int) -> np.ndarray:
    """``fock_quadrature_pdf(n, nodes)`` on the GRID_1D CDF nodes, read-only.
    Built on first use and kept: one 128 KiB table per n <= MAX_FOCK."""
    pdf = fock_quadrature_pdf(n, np.linspace(-X_MAX, X_MAX, GRID_1D))
    pdf.flags.writeable = False
    return pdf


def _quadrature_draw(rho: np.ndarray, count: int, rng_seed: int) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """Checks and generator of a 1-d quadrature draw: (rng, cdf, nodes), with
    x = interp(u, cdf, nodes) for uniforms u on [0, 1) drawn from ``rng``
    after ``count`` thetas.  The pdf on the nodes is ``mixture_pdf`` of the
    state, bit for bit: the same tables summed in the same n order.  Every
    reduction of a heralded pair state to one mode is diagonal; a
    coherence of 1e-12 or more raises InvalidDensity."""
    if count <= 0:
        raise EmptyInput(f"sample count must be positive, got {count}")
    rho = np.asarray(rho, dtype=complex)
    probs = photon_distribution(rho).probs
    if rho.shape[0] - 1 > MAX_FOCK:
        raise CutoffExceeded(f"density matrix cutoff {rho.shape[0] - 1} > {MAX_FOCK}")
    coherence = float(np.max(np.abs(rho - np.diag(np.diag(rho)))))
    if coherence >= 1e-12:
        raise InvalidDensity(
            f"coherence {coherence:.2e} between unequal photon numbers; "
            "the quadrature sampler needs a Fock-diagonal density"
        )
    xs = np.linspace(-X_MAX, X_MAX, GRID_1D)
    pdf = np.zeros(GRID_1D)
    for n, p in enumerate(probs):
        if p > 0.0:
            pdf += p * _node_pdf(n)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * (xs[1] - xs[0]))])
    cdf /= cdf[-1]
    return np.random.default_rng(rng_seed), cdf, xs


def sample_quadratures(rho: np.ndarray, count: int, rng_seed: int) -> np.ndarray:
    """Draw ``count`` (x, theta) pairs, in draw order, from a Fock-diagonal
    single-mode density matrix.

    theta is uniform on [0, 2*pi), and x follows the phase-independent
    mixture density through the piecewise-linear inverse of its
    trapezoid-rule CDF on GRID_1D nodes over [-X_MAX, X_MAX].  Raises
    InvalidDensity for a state that is not Fock-diagonal.

    Returns an array of shape (count, 2) with columns (x, theta).
    Deterministic for a fixed seed.
    """
    rng, cdf, xs = _quadrature_draw(rho, count, rng_seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return np.column_stack([np.interp(rng.uniform(0.0, 1.0, size=count), cdf, xs), theta])


def quadrature_values(rho: np.ndarray, count: int, rng_seed: int) -> np.ndarray:
    """The x values of ``sample_quadratures(rho, count, rng_seed)`` in the
    order of their sorted uniforms, not in draw order, so non-decreasing
    up to rounding at the nodes.

    The generator is advanced past the ``count`` thetas without drawing
    them, and the uniforms after them go through the same lookup, whose
    segment and slope for a query do not depend on the order of the
    queries.  So the values are those of ``sample_quadratures(...)[:, 0]``
    bit for bit, as a multiset.  For a fit, which only histograms them,
    this is faster.  Raises as ``sample_quadratures`` does.
    """
    rng, cdf, xs = _quadrature_draw(rho, count, rng_seed)
    # Generator.uniform takes exactly one 64-bit PCG64 output per float64,
    # so advancing by count lands where drawing the thetas would
    rng.bit_generator.advance(count)
    u = rng.uniform(0.0, 1.0, size=count)
    u.sort()
    return np.interp(u, cdf, xs)


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
    cdf = np.cumsum(g0)
    cdf /= cdf[-1]
    # draw order, which fixes the stream: cell, jitter on each axis, phase
    cell = np.unravel_index(np.searchsorted(cdf, rng.uniform(0.0, 1.0, size=count)), g0.shape)
    h = edges[1] - edges[0]
    x1, x2 = (edges[i] + h * rng.uniform(0.0, 1.0, size=count) for i in cell)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return np.column_stack([x1, x2, theta])


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
