"""Temporal modes of a narrowband continuous-wave downconversion source.

A trigger detection at time ``t_i`` heralds a signal wavepacket in the
double-sided exponential mode

    g_i(t) = sqrt(pi*gamma) * exp(-pi*gamma*|t - t_i|),

where ``gamma`` is the source bandwidth (FWHM, Hz).  Two detections
separated by ``delta_t`` herald two such modes whose L2 overlap has the
closed form

    I(delta_t) = exp(-pi*gamma*|delta_t|) * (1 + pi*gamma*|delta_t|).

This module builds those modes on discrete time grids, evaluates overlaps
both numerically and in closed form, constructs the orthonormal
symmetric/antisymmetric combinations, and extends a set of seed modes to a
larger orthonormal analysis basis.

Conventions: time in seconds, mode samples in s^(-1/2), discrete inner
product  <a, b> = sum(a*b) * dt.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateModes,
    GridMismatch,
    InvalidGamma,
    MarginTooSmall,
    RankDeficient,
)

# Margin (in units of 1/(pi*gamma)) required between a herald time and the
# grid edges.  exp(-2*pi*gamma*margin) = exp(-20) ~ 2e-9 truncated L2 mass,
# far below the documented 1e-6 acceptance threshold.
MARGIN_FACTOR = 10.0

# Overlap above which the antisymmetric combination is numerically degenerate.
DEGENERACY_EPS = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: ``times[k] = t_start + k*dt`` for k in [0, n_samples)."""

    t_start: float
    dt: float
    n_samples: int

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise GridMismatch(f"grid step must be positive and finite, got {self.dt}")
        if self.n_samples < 2:
            raise GridMismatch(f"grid needs at least 2 samples, got {self.n_samples}")

    @property
    def t_end(self) -> float:
        return self.t_start + (self.n_samples - 1) * self.dt

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)


def default_grid(dt: float = 0.1e-9, window: float = 500e-9, t_start: float = 0.0) -> TimeGrid:
    """Acquisition-style grid: 0.1 ns steps over a 500 ns window by default."""
    n = int(round(window / dt)) + 1
    return TimeGrid(t_start=t_start, dt=dt, n_samples=n)


@dataclass(frozen=True)
class ModeFunction:
    """A real temporal mode sampled on a grid.

    Attributes
    ----------
    grid : TimeGrid
        The grid the samples live on.
    samples : np.ndarray
        Real amplitudes, units s^(-1/2); read-only.
    normalized : bool
        True when sum(samples**2)*dt == 1 to float accuracy.
    """

    grid: TimeGrid
    samples: np.ndarray = field(repr=False)
    normalized: bool = False

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.shape != (self.grid.n_samples,):
            raise GridMismatch(
                f"samples shape {s.shape} does not match grid length {self.grid.n_samples}"
            )
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)
        if self.normalized:
            norm_sq = float(np.dot(s, s)) * self.grid.dt
            if abs(norm_sq - 1.0) > 1e-9:
                raise GridMismatch(
                    f"mode flagged normalized but |<m,m>-1| = {abs(norm_sq - 1.0):.3e}"
                )

    def norm_squared(self) -> float:
        return float(np.dot(self.samples, self.samples)) * self.grid.dt


@dataclass(frozen=True)
class HeraldPair:
    """Two trigger detection times; ``delay`` is the signed separation t2 - t1."""

    t1: float
    t2: float

    @property
    def delay(self) -> float:
        return self.t2 - self.t1


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise InvalidGamma(f"bandwidth must be positive and finite, got {gamma}")


def _check_margin(t_i: float, gamma: float, grid: TimeGrid) -> None:
    margin = MARGIN_FACTOR / (math.pi * gamma)
    left = t_i - grid.t_start
    right = grid.t_end - t_i
    if not (left >= margin and right >= margin):  # also catches a NaN herald time
        # truncated L2 mass outside the grid, each side carries exp(-2*pi*gamma*m)/2
        mu = math.pi * gamma
        mass = 0.5 * (math.exp(-2.0 * mu * max(left, 0.0)) + math.exp(-2.0 * mu * max(right, 0.0)))
        raise MarginTooSmall(
            f"herald at t={t_i:.3e} s needs {margin:.3e} s of grid on each side "
            f"(have {left:.3e}/{right:.3e}; truncated mass {mass:.2e})"
        )


def make_trigger_mode(t_i: float, gamma: float, grid: TimeGrid) -> ModeFunction:
    """Build the normalized double-sided exponential mode heralded at ``t_i``.

    The continuous profile sqrt(pi*gamma)*exp(-pi*gamma*|t-t_i|) is sampled
    on the grid and renormalized so the discrete L2 norm is exactly 1.

    Raises
    ------
    InvalidGamma
        If ``gamma`` is not a positive finite frequency.
    MarginTooSmall
        If ``t_i`` sits closer than 10/(pi*gamma) to a grid edge, i.e. the
        grid would truncate more than ~2e-9 of the mode's L2 mass.
    """
    _check_gamma(gamma)
    _check_margin(t_i, gamma, grid)
    mu = math.pi * gamma
    s = math.sqrt(mu) * np.exp(-mu * np.abs(grid.times() - t_i))
    s /= math.sqrt(float(np.dot(s, s)) * grid.dt)
    return ModeFunction(grid=grid, samples=s, normalized=True)


def overlap(a: ModeFunction, b: ModeFunction) -> float:
    """Discrete L2 inner product sum(a*b)*dt; grids must match exactly."""
    if a.grid != b.grid:
        raise GridMismatch(f"modes on different grids: {a.grid} vs {b.grid}")
    return float(np.dot(a.samples, b.samples)) * a.grid.dt


def overlap_closed_form(delta_t, gamma: float):
    """Overlap of two trigger modes separated by ``delta_t``:
    exp(-pi*gamma*|delta_t|) * (1 + pi*gamma*|delta_t|).

    Strictly decreasing in |delta_t|, equal to 1 at delta_t = 0.  Accepts a
    scalar or an array of separations.
    """
    _check_gamma(gamma)
    x = math.pi * gamma * np.abs(delta_t)
    out = np.exp(-x) * (1.0 + x)
    return float(out) if np.isscalar(delta_t) else out


def make_symmetric_antisymmetric(g1: ModeFunction, g2: ModeFunction) -> tuple[ModeFunction, ModeFunction]:
    """Orthonormal symmetric/antisymmetric combinations of two trigger modes.

        f1 = (g1 + g2) / sqrt(2*(1 + I)),   f2 = (g1 - g2) / sqrt(2*(1 - I)),

    with I the discrete overlap of the (normalized) inputs.  With the
    discrete I both outputs have exactly unit norm and are orthogonal on
    the grid.

    Raises
    ------
    DegenerateModes
        If I >= 1 - 1e-6: the difference mode carries no L2 mass and f2 is
        numerically undefined.
    GridMismatch
        If the inputs live on different grids or are not normalized.
    """
    if g1.grid != g2.grid:
        raise GridMismatch("trigger modes on different grids")
    if not (g1.normalized and g2.normalized):
        raise GridMismatch("trigger modes must be normalized")
    ov = overlap(g1, g2)
    if ov >= 1.0 - DEGENERACY_EPS:
        raise DegenerateModes(
            f"overlap {ov:.9f} too close to 1; symmetric/antisymmetric split undefined"
        )
    f1 = (g1.samples + g2.samples) / math.sqrt(2.0 * (1.0 + ov))
    f2 = (g1.samples - g2.samples) / math.sqrt(2.0 * (1.0 - ov))
    return (
        ModeFunction(grid=g1.grid, samples=f1, normalized=True),
        ModeFunction(grid=g1.grid, samples=f2, normalized=True),
    )


def _filler_profiles(grid: TimeGrid, count: int) -> Iterator[np.ndarray]:
    # Deterministic Fourier-like fillers: half-period cosines over the grid
    # span.  Smooth, cheap, and generically independent of exponential modes.
    # Made on demand: a basis the seeds already fill takes at most one.
    t = grid.times()
    u = (t - grid.t_start) / max(grid.duration, np.finfo(float).tiny)
    return (np.cos(j * math.pi * u) for j in range(count))


def extend_orthonormal_basis(seeds: list[ModeFunction], grid: TimeGrid, total: int) -> list[ModeFunction]:
    """Extend seed modes to ``total`` orthonormal modes on ``grid``.

    The first output equals the first seed (seeds must be normalized).
    Remaining seeds are orthogonalized by modified Gram-Schmidt with one
    re-orthogonalization pass; the basis is then padded with cosine filler
    profiles orthogonalized the same way.

    Raises
    ------
    RankDeficient
        If the seed Gram matrix has condition number above 1e8.
    GridMismatch
        If a seed lives on a different grid.
    """
    if total < len(seeds):
        raise RankDeficient(f"requested {total} modes < {len(seeds)} seeds")
    for s in seeds:
        if s.grid != grid:
            raise GridMismatch("seed mode on a different grid")
        if not s.normalized:
            raise GridMismatch("seed modes must be normalized")
    if seeds:
        gram = np.array([[overlap(a, b) for b in seeds] for a in seeds])
        if np.linalg.cond(gram) > 1e8:
            raise RankDeficient(
                f"seed Gram matrix condition number {np.linalg.cond(gram):.2e} > 1e8"
            )

    dt = grid.dt
    basis: list[np.ndarray] = []

    def orthogonalize(v: np.ndarray) -> np.ndarray | None:
        w = v.astype(float).copy()
        for _ in range(2):  # second pass controls rounding in near-parallel cases
            for b in basis:
                w -= b * (float(np.dot(b, w)) * dt)
        nrm = math.sqrt(float(np.dot(w, w)) * dt)
        if nrm < 1e-6:
            return None
        return w / nrm

    for k, s in enumerate(seeds):
        if k == 0:
            basis.append(s.samples.copy())
            continue
        w = orthogonalize(s.samples)
        if w is None:
            raise RankDeficient(f"seed {k} numerically dependent on earlier seeds")
        basis.append(w)

    for v in _filler_profiles(grid, count=4 * total + 8):
        if len(basis) >= total:
            break
        w = orthogonalize(v)
        if w is not None:
            basis.append(w)
    if len(basis) < total:
        raise RankDeficient(f"could only build {len(basis)} of {total} requested modes")
    return [ModeFunction(grid=grid, samples=b, normalized=True) for b in basis]
