"""Click statistics of the unheralded trigger beam.

The trigger arm of a narrowband continuous-wave pair source behaves as a
single-mode thermal beam with first-order coherence

    |g1(tau)| = (1 + pi*gamma*|tau|) * exp(-pi*gamma*|tau|),

i.e. a squared-Lorentzian power spectrum ~ 1/(omega**2 + (pi*gamma)**2)**2.
This module synthesizes such a field as a colored circular complex
Gaussian process (frequency-domain amplitude filtering of white noise),
drives an inhomogeneous Poisson (Cox) click process by thinning, and
provides the pair statistics: the normalized delay histogram g2 and the
two-detector coincidence selection used for heralding.

For a thermal intensity the Siegert relation gives
g2(tau) = 1 + |g1(tau)|**2, so g2(0) = 2.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .analytic import g2_closed_form
from .errors import (
    DurationTooShort,
    InsufficientStatistics,
    OutOfRange,
    RateTooHigh,
    ResolutionTooCoarse,
)
from .modes import TimeGrid

# Click-rate validity: intensity must be resolved on the field grid.
MAX_RATE_DT = 0.1
# Fraction of max_delay used as the far-delay normalization plateau.
PLATEAU_FRACTION = 0.8


@dataclass(frozen=True)
class FieldTrace:
    """Complex field amplitude on a (coarse) grid, unit mean intensity."""

    grid: TimeGrid
    amplitude: np.ndarray = field(repr=False)
    gamma: float = 0.0

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitude, dtype=complex).copy()
        if a.shape != (self.grid.n_samples,):
            raise OutOfRange("amplitude length does not match grid")
        a.flags.writeable = False
        object.__setattr__(self, "amplitude", a)

    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


@dataclass(frozen=True)
class ClickStream:
    """Strictly increasing detection times over [0, duration)."""

    times: np.ndarray = field(repr=False)
    duration: float
    mean_rate: float

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float).copy()
        if t.ndim != 1:
            raise OutOfRange("click times must be a 1-d array")
        if t.size and (np.any(np.diff(t) <= 0.0) or t[0] < 0.0 or t[-1] >= self.duration):
            raise OutOfRange("click times must be strictly increasing within [0, duration)")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size


def synthesize_thermal_field(
    gamma: float, duration: float, dt_field: float, rng_seed: int
) -> FieldTrace:
    """Colored circular complex Gaussian field with the squared-Lorentzian
    spectrum of the trigger beam.

    White complex Gaussian noise is filtered in the frequency domain with
    amplitude 1/(omega**2 + (pi*gamma)**2) and rescaled by the analytic
    filter norm so the ensemble mean intensity is exactly 1 (the realized
    mean then fluctuates only statistically).

    Raises
    ------
    ResolutionTooCoarse
        If dt_field > 1/(20*gamma).
    DurationTooShort
        If duration < 100/gamma (too few coherence cells for stationary
        statistics).
    """
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise OutOfRange(f"bandwidth must be positive, got {gamma}")
    if dt_field > 1.0 / (20.0 * gamma):
        raise ResolutionTooCoarse(
            f"dt_field {dt_field:.3e} s > 1/(20*gamma) = {1.0 / (20.0 * gamma):.3e} s"
        )
    if duration < 100.0 / gamma:
        raise DurationTooShort(
            f"duration {duration:.3e} s < 100/gamma = {100.0 / gamma:.3e} s"
        )
    n = int(round(duration / dt_field))
    rng = np.random.default_rng(rng_seed)
    mu = math.pi * gamma
    omega = 2.0 * math.pi * np.fft.fftfreq(n, d=dt_field)
    filt = 1.0 / (omega * omega + mu * mu)
    spectrum = filt * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    amp = np.fft.ifft(spectrum)
    # ensemble variance of each output sample: sum(filt**2)/n**2
    amp /= math.sqrt(float(np.sum(filt * filt)) / n**2)
    grid = TimeGrid(t_start=0.0, dt=dt_field, n_samples=n)
    return FieldTrace(grid=grid, amplitude=amp, gamma=gamma)


def sample_clicks(field: FieldTrace, mean_rate: float, rng_seed: int) -> ClickStream:
    """Cox-process clicks: thin a homogeneous Poisson stream at the peak
    rate ``mean_rate * max(intensity)`` down to rate(t) = mean_rate * |a(t)|**2.

    Raises
    ------
    RateTooHigh
        If mean_rate * dt_field > 0.1 (intensity not resolved between
        candidate events).
    """
    if not (math.isfinite(mean_rate) and mean_rate > 0.0):
        raise OutOfRange(f"mean rate must be positive, got {mean_rate}")
    dt = field.grid.dt
    if mean_rate * dt > MAX_RATE_DT:
        raise RateTooHigh(
            f"mean_rate*dt_field = {mean_rate * dt:.3f} > {MAX_RATE_DT}: refine the field grid"
        )
    rng = np.random.default_rng(rng_seed)
    intensity = field.intensity()
    duration = field.grid.n_samples * dt
    peak = mean_rate * float(intensity.max())
    n_candidates = rng.poisson(peak * duration)
    times = np.sort(rng.uniform(0.0, duration, size=n_candidates))
    idx = np.minimum((times / dt).astype(np.int64), field.grid.n_samples - 1)
    keep = rng.uniform(0.0, 1.0, size=n_candidates) * peak <= mean_rate * intensity[idx]
    return ClickStream(times=times[keep], duration=duration, mean_rate=mean_rate)


def concatenate_streams(streams: list[ClickStream]) -> ClickStream:
    """Join independent segments end to end (offsets accumulate)."""
    if not streams:
        raise OutOfRange("no streams to concatenate")
    parts = []
    offset = 0.0
    for s in streams:
        parts.append(s.times + offset)
        offset += s.duration
    rate = sum(len(s) for s in streams) / offset if offset > 0 else 0.0
    return ClickStream(times=np.concatenate(parts), duration=offset, mean_rate=rate)


@dataclass(frozen=True)
class G2Histogram:
    """Pair-delay histogram normalized by its far-delay plateau."""

    bin_centers: np.ndarray
    g2: np.ndarray
    counts: np.ndarray
    plateau: float


def g2_histogram(stream: ClickStream, bin_width: float, max_delay: float) -> G2Histogram:
    """Histogram of all ordered pair delays up to ``max_delay``, normalized
    by the mean bin content over delays in [0.8*max_delay, max_delay].

    The caller must pick max_delay >= 5 correlation times so the plateau
    is flat; the normalization region must hold enough pairs for < 2%
    relative error, otherwise InsufficientStatistics is raised.
    """
    if bin_width <= 0 or max_delay <= bin_width:
        raise OutOfRange("need 0 < bin_width < max_delay")
    times = stream.times
    n = times.size
    if n < 2:
        raise InsufficientStatistics("need at least two clicks")
    rate = n / stream.duration
    expected_plateau_pairs = n * rate * (1.0 - PLATEAU_FRACTION) * max_delay
    if expected_plateau_pairs < 2500.0:  # 1/sqrt(2500) = 2% relative error
        raise InsufficientStatistics(
            f"~{expected_plateau_pairs:.0f} plateau pairs expected; need >= 2500 "
            "for 2% normalization accuracy"
        )
    n_bins = int(round(max_delay / bin_width))
    edges = bin_width * np.arange(n_bins + 1)
    counts = np.zeros(n_bins, dtype=np.int64)
    offset = 1
    while offset < n:
        delays = times[offset:] - times[:-offset]
        within = delays <= max_delay
        if not np.any(within):
            break
        counts += np.histogram(delays[within], bins=edges)[0]
        offset += 1
    plateau_bins = edges[:-1] >= PLATEAU_FRACTION * max_delay
    plateau = float(counts[plateau_bins].mean())
    if plateau <= 0.0:
        raise InsufficientStatistics("empty normalization plateau")
    centers = 0.5 * (edges[:-1] + edges[1:])
    return G2Histogram(
        bin_centers=centers, g2=counts / plateau, counts=counts, plateau=plateau
    )


def select_coincidences(
    stream: ClickStream,
    window: float,
    dead_time: float = 500e-9,
    rng_seed: int = 0,
) -> np.ndarray:
    """Split clicks 50/50 onto detectors A and B, then pair each A click
    with the next B click when t_B - t_A <= window.

    Consumed events are not reused.  An accepted pair arms a dead time:
    the next pair's first click must satisfy t1 >= previous t2 + dead_time
    (both clicks of a blocked pair are discarded, as by a busy scope).
    Labeling is the only randomness; deterministic for a fixed seed.

    Returns an (n, 2) array of (t1, t2) rows, t2 - t1 >= 0; shape (0, 2)
    when no pair is accepted.
    """
    if window <= 0.0:
        raise OutOfRange(f"window must be positive, got {window}")
    if dead_time < 0.0:
        raise OutOfRange(f"dead time cannot be negative, got {dead_time}")
    rng = np.random.default_rng(rng_seed)
    times = stream.times
    is_a = rng.uniform(0.0, 1.0, size=times.size) < 0.5
    pairs: list[tuple[float, float]] = []
    pending_a: deque[float] = deque()
    ready_at = -math.inf
    # Python floats: the loop visits every click, and numpy scalars cost
    # more per step than the arithmetic they carry
    for t, a_label in zip(times.tolist(), is_a.tolist()):
        if a_label:
            pending_a.append(t)
            continue
        # drop A clicks whose next B (this one) is already out of window
        while pending_a and t - pending_a[0] > window:
            pending_a.popleft()
        if not pending_a:
            continue
        t1 = pending_a.popleft()
        if t1 >= ready_at:
            pairs.append((t1, t))
            ready_at = t + dead_time
    return np.array(pairs, dtype=float).reshape(-1, 2)


def write_g2_csv(hist: G2Histogram, path: str, gamma: float | None = None) -> None:
    """Histogram as CSV (delay_ns, g2); adds g2_theory when gamma given."""
    columns = [hist.bin_centers * 1e9, hist.g2]
    header = "delay_ns,g2"
    if gamma is not None:
        columns.append(g2_closed_form(hist.bin_centers, gamma))
        header = "delay_ns,g2_empirical,g2_theory"
    np.savetxt(
        path, np.column_stack(columns), fmt="%.12g", delimiter=",", header=header, comments=""
    )
