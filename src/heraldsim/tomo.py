"""Maximum-likelihood photon-number tomography from homodyne samples.

Phase-randomized homodyne data determine the photon-number distribution:
the probability of a quadrature outcome in bin j given n photons is

    Pi[n][j] = integral over bin j of |psi_n(x)|**2 dx,

independent of the local-oscillator phase.  One histogram kernel, ``_em``,
runs the expectation-maximization fixed point

    P_n  <-  P_n * (1/J) * sum_j  hist_j * Pi[n][j] / p_j,
    p_j = sum_n P_n * Pi[n][j],

from the uniform start on a (B, n_bins) batch of histograms at once.  Its
log-likelihood is non-decreasing, and the kernel checks that on every row.
Each row stops on its own relative log-likelihood change; a stopped row
leaves the batch, so its result is the one a single-row run would give.
``ml_diagonal_batch`` bins every sample set of a driver run against one
POVM and fits all their histograms in one such batch; ``ml_diagonal`` is
its case of one set.  A set is binned by searching its values, in
non-decreasing order, for the bin edges; a set not already in that order
is sorted first, so its order does not matter.  The phases are not
needed: the heralded states are Fock-diagonal, so the photon-number
distribution is all there is to reconstruct.

The result's ``stderr`` is the observed information of the binned
multinomial likelihood at the EM estimate, with no resampling and no RNG.
Two heralds put at most two photons into any mode, so P_3 .. P_cutoff are
truly 0, on the boundary of the simplex, and are held at their estimates:
with D the POVM rows Pi_1 - Pi_0 and Pi_2 - Pi_0 and p = P . Pi,

    J = D diag(hist / p**2) D^T,

Var(P_1) and Var(P_2) are the diagonal of J^-1 and Var(P_0) = 1^T J^-1 1.
Each P_n with n >= 3 frees P_1, P_2 and P_n in the 3 x 3 block of the same
form.  A bootstrap of the histogram would be inconsistent at that boundary
(Andrews, Econometrica 68, 399, 2000): its spread collapses where the
estimate of P_2 sits near 0.
"""

from __future__ import annotations

import math
import warnings
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffExceeded, EmptyInput, InsufficientStatistics, InvalidDensity, OutOfRange
from .homodyne import MAX_FOCK, X_MAX, hermite_function

# Gauss-Legendre order per bin; exact to machine precision for the smooth
# squared Hermite functions at the default binning.
_GL_ORDER = 16


@dataclass(frozen=True)
class MLConfig:
    """Reconstruction settings: Fock cutoff and stopping rule."""

    cutoff: int = 5
    max_iters: int = 10_000
    tol: float = 1e-10
    n_bins: int = 256

    def __post_init__(self) -> None:
        if not 2 <= self.cutoff <= MAX_FOCK:
            raise CutoffExceeded(f"cutoff must lie in [2, {MAX_FOCK}], got {self.cutoff}")
        for name, value, least in (("max_iters", self.max_iters, 1), ("n_bins", self.n_bins, 64)):
            if not value >= least:
                raise OutOfRange(f"{name} must be at least {least}, got {value}")
        if not 0.0 < self.tol < math.inf:
            raise OutOfRange(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class BinnedPOVM:
    """Per-Fock-state bin masses over a uniform quadrature binning."""

    edges: np.ndarray
    elements: np.ndarray = field(repr=False)  # shape (cutoff+1, n_bins)

    @property
    def cutoff(self) -> int:
        return self.elements.shape[0] - 1

    @property
    def n_bins(self) -> int:
        return self.elements.shape[1]


def build_povm(cutoff: int, n_bins: int = 256) -> BinnedPOVM:
    """Integrate |psi_n|**2 over each bin of [-X_MAX, X_MAX] by fixed-order
    Gauss-Legendre quadrature.  Row sums equal 1 up to the (negligible)
    tail mass beyond +-X_MAX."""
    if cutoff < 1:
        raise CutoffExceeded(f"cutoff must be >= 1, got {cutoff}")
    if n_bins < 64:
        raise OutOfRange(f"need at least 64 bins, got {n_bins}")
    edges = np.linspace(-X_MAX, X_MAX, n_bins + 1)
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    xs = mids[:, None] + half * nodes[None, :]  # (n_bins, order)
    elements = np.empty((cutoff + 1, n_bins))
    for n in range(cutoff + 1):
        psi = hermite_function(n, xs)
        elements[n] = (psi * psi) @ weights * half
    return BinnedPOVM(edges=edges, elements=elements)


@dataclass(frozen=True)
class MLResult:
    """Reconstruction output: probabilities, convergence metadata, stderr."""

    probs: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    cutoff: int
    stderr: np.ndarray = field(repr=False)
    ll_history: np.ndarray = field(repr=False, default_factory=lambda: np.array([]))

    def to_json_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "probs": [float(p) for p in self.probs],
            "log_likelihood": float(self.log_likelihood),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }


def _histogram(samples: np.ndarray, povm: BinnedPOVM) -> np.ndarray:
    """Bin the x column of ``samples`` (1-d x or (N, 2) rows of (x, theta))
    on the binning of ``povm``, in any order.  Values already in
    non-decreasing order, as ``quadrature_values`` nearly always gives
    them, are not sorted again.

    Bin k holds edges[k] <= x < edges[k + 1]; the first and last bins also
    hold everything below and above the grid.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 2:
        x = x[:, 0]
    if x.size == 0:
        raise EmptyInput("no quadrature samples")
    if not np.all(np.isfinite(x)):
        raise OutOfRange(f"{np.count_nonzero(~np.isfinite(x))} quadrature samples are not finite")
    if not np.all(x[1:] >= x[:-1]):
        x = np.sort(x)
    below = np.searchsorted(x, povm.edges[1:-1], side="left")
    return np.diff(below, prepend=0, append=x.size).astype(float)


def _em(
    hist: np.ndarray, pi: np.ndarray, config: MLConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """EM on each row of a (B, n_bins) histogram batch against POVM ``pi``.

    Every row starts uniform and stops when its relative log-likelihood
    change drops below ``config.tol``, or at ``config.max_iters``.  A
    stopped row leaves the batch; the arrays are compacted only on the
    iterations where some row stops.  The batch is kept as a stack of
    single rows, so each row gets the BLAS calls a loop over that row alone
    makes, and the same probabilities bit for bit.  The log-likelihoods of
    the stopping rule sum over the batch's occupied bins; a row's final one
    sums over its own, as a run on that row alone does.

    Returns per row: probabilities (B, cutoff+1), final log-likelihood,
    iterations, converged flags, and the log-likelihood history (one value
    per iteration plus the final one).  Raises InvalidDensity if any row's
    log-likelihood falls, which EM rules out.
    """
    n_rows, dim = hist.shape[0], pi.shape[0]
    pi_t, tol, max_iters = pi.T, config.tol, config.max_iters
    occupied = np.flatnonzero(hist.any(axis=0))
    probs_out = np.empty((n_rows, dim))
    ll_out = np.empty(n_rows)
    iters_out = np.empty(n_rows, dtype=int)
    converged_out = np.zeros(n_rows, dtype=bool)
    history_out: list[np.ndarray] = [np.empty(0)] * n_rows
    # the active rows, each a (1, .) matrix: original index, histogram, its
    # occupied bins, count, estimate and log-likelihoods so far
    rows = np.arange(n_rows)
    h = hist[:, None, :]
    h_occ = h.take(occupied, axis=2)
    total = np.add.reduce(h, axis=2, keepdims=True)
    probs = np.full((n_rows, 1, dim), 1.0 / dim)
    trails = [array("d") for _ in range(n_rows)]

    def log_likelihood(
        p: np.ndarray, h_bins: np.ndarray, bins: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        p_bin = np.matmul(p, pi)
        np.maximum(p_bin, 1e-300, out=p_bin)
        return np.vecdot(h_bins, np.log(p_bin.take(bins, axis=2)))[:, 0], p_bin

    for it in range(1, max_iters + 1):
        ll, p_bin = log_likelihood(probs, h_occ, occupied)
        probs = probs * np.matmul(h / p_bin, pi_t) / total
        np.maximum(probs, 0.0, out=probs)
        probs /= np.add.reduce(probs, axis=2, keepdims=True)
        # scalar tests per row cost less than array operations on B values
        stop = []
        for k, (trail, value) in enumerate(zip(trails, ll.tolist())):
            if trail:
                prev = trail[-1]
                if value < prev - 1e-9 * max(1.0, abs(prev)):
                    raise InvalidDensity(
                        f"EM log-likelihood fell from {prev!r} to {value!r} "
                        f"(row {rows[k]}, iteration {it})"
                    )
                if abs(value - prev) <= tol * abs(prev):
                    stop.append(k)
            trail.append(value)
        if not stop and it < max_iters:
            continue
        leave = np.full(rows.size, it == max_iters)
        leave[stop] = True
        converged_out[rows[stop]] = True
        done = rows[leave]
        for k, r in zip(np.flatnonzero(leave).tolist(), done.tolist()):
            own = np.flatnonzero(hist[r])
            (value,), _ = log_likelihood(probs[k : k + 1], h[k : k + 1].take(own, axis=2), own)
            trails[k].append(value)
            history_out[r] = np.array(trails[k])
            ll_out[r] = value
        probs_out[done] = probs[leave, 0]
        iters_out[done] = it
        keep = ~leave
        if not keep.any():
            break
        rows, h, h_occ, total, probs = rows[keep], h[keep], h_occ[keep], total[keep], probs[keep]
        trails = [trail for trail, kept in zip(trails, keep.tolist()) if kept]
    return probs_out, ll_out, iters_out, converged_out, history_out


def _information_stderr(hist: np.ndarray, pi: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Standard errors of ``probs`` from the observed information of the
    binned likelihood sum(hist * log(probs @ pi)) (module docstring).

    Raises InsufficientStatistics when an information block is not
    positive definite, e.g. for data in one or two bins.
    """
    occupied = hist > 0
    pi_occ = pi[:, occupied]
    d = pi_occ - pi_occ[0]  # row n: the direction of P_n, paid for by P_0
    weighted = d * (hist[occupied] / np.square(probs @ pi_occ))
    stderr = np.empty(pi.shape[0])
    for free in [(1, 2)] + [(1, 2, n) for n in range(3, pi.shape[0])]:
        block = weighted[list(free)] @ d[list(free)].T
        eigenvalues = np.linalg.eigvalsh(block) if np.all(np.isfinite(block)) else [np.nan]
        # a condition number beyond 1e12 is a singular block in floating point
        if not eigenvalues[0] > 1e-12 * eigenvalues[-1]:
            raise InsufficientStatistics(
                f"the information of {', '.join(f'P{n}' for n in free)} is not positive definite: "
                f"{int(hist.sum())} samples in {np.count_nonzero(occupied)} bins"
            )
        cov = np.linalg.inv(block)
        if len(free) == 2:
            stderr[:3] = np.sqrt([cov.sum(), cov[0, 0], cov[1, 1]])
        else:
            stderr[free[2]] = math.sqrt(cov[2, 2])
    return stderr


def ml_diagonal(samples: np.ndarray, config: MLConfig = MLConfig()) -> MLResult:
    """EM estimate of the photon-number distribution from quadrature values.

    ``samples`` may be a 1-d array of x values or an (N, 2) array of
    (x, theta) rows; phases are irrelevant for the phase-averaged POVM and
    are ignored.  Stops when the relative log-likelihood gain drops below
    ``config.tol``; the result carries a ``converged`` flag (no exception
    on hitting the iteration budget: the best iterate is returned).
    Fewer than 1,000 samples warn; none raise EmptyInput and non-finite
    ones OutOfRange.  The result's ``stderr`` is the observed-information
    error of each P_n (module docstring); data too sparse to have one
    raise InsufficientStatistics.  The one-set case of ``ml_diagonal_batch``.
    """
    (result,) = ml_diagonal_batch([samples], config)
    return result


def ml_diagonal_batch(
    sample_sets: Iterable[np.ndarray], config: MLConfig = MLConfig()
) -> list[MLResult]:
    """``ml_diagonal`` of each sample set, in order, from one ``_em`` batch.

    Every set is checked, warned about and histogrammed against one POVM as
    it is taken from ``sample_sets``, so an iterator that draws the sets one
    at a time keeps only their histograms.  Each result has the
    probabilities, stderr and final log-likelihood of a fit of its set
    alone, bit for bit.  Only the stopping rule's log-likelihoods, and so
    ``ll_history``, sum over the batch's occupied bins, which can move
    their last bits.
    """
    povm = build_povm(config.cutoff, config.n_bins)
    rows = []
    for samples in sample_sets:
        hist = _histogram(samples, povm)
        n_samples = int(hist.sum())
        if n_samples < 1000:
            warnings.warn(
                f"only {n_samples} samples; estimates below ~1e3 samples are noisy",
                stacklevel=2,
            )
        rows.append(hist)
    if not rows:
        return []
    hists, pi = np.stack(rows), povm.elements
    probs, ll, iters, converged, history = _em(hists, pi, config)
    return [
        MLResult(
            probs=probs[k],
            log_likelihood=float(ll[k]),
            iterations=int(iters[k]),
            converged=bool(converged[k]),
            cutoff=config.cutoff,
            stderr=_information_stderr(hist, pi, probs[k]),
            ll_history=history[k],
        )
        for k, hist in enumerate(rows)
    ]
