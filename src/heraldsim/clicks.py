"""Click statistics of the unheralded trigger beam.

The trigger arm of a narrowband continuous-wave pair source behaves as a
single-mode thermal beam with first-order coherence

    |g1(tau)| = (1 + pi*gamma*|tau|) * exp(-pi*gamma*|tau|),

i.e. a squared-Lorentzian power spectrum ~ 1/(omega**2 + (pi*gamma)**2)**2.
This module synthesizes such a field as the exact sampled process, a
circular complex Gaussian ARMA(2,1) recursion that can be continued from
one chunk of samples to the next, drives an inhomogeneous Poisson (Cox)
click process by thinning, and provides the pair statistics: the
normalized delay histogram g2 and the two-detector coincidence selection
used for heralding, ``g2_histogram`` and ``CoincidenceSelector``, each on
one stream fed chunk by chunk.

``thermal_field_chunks`` makes one field in chunks, each continuing the
last, so that a caller can thin each chunk as it is made.  It is a
two-stage pipeline over two chunk buffers made once: a chunk's white
noise and MA(1) step need only the last normal of the chunk before, so a
helper thread draws chunk k+1's while the calling thread filters chunk k
and thins it.  Per 2^18-sample chunk on a 2-vCPU Xeon host, the helper
spends about 8.2 ms in ``_innovations`` while the calling thread spends
2 x 2.7 ms in ``_scan`` and 2.3 ms in ``sample_clicks``, which reuses one
set of arrays from chunk to chunk; Generator fills and numpy loops release
the GIL.  A caller's own work on a chunk runs on the calling thread too:
coincidence selection about 1.2 ms, and g2's pair count about 0.5 ms.
``synthesize_thermal_field`` is its one-chunk case.

For a thermal intensity the Siegert relation gives
g2(tau) = 1 + |g1(tau)|**2, so g2(0) = 2.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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
# Samples per block of the field scan: few enough that the scale factors
# exp(+-mu*dt*j) stay small (their rounding grows with the exponent), many
# enough that the per-block Python loop is cheap next to the array work.
_SCAN_BLOCK = 256
# Samples per slab of the in-place innovation and carry steps: the bound
# on their temporaries, which would otherwise span a whole field chunk.
_SLAB = 2**14


@dataclass(frozen=True)
class FieldTrace:
    """Complex field amplitude on a (coarse) grid, unit mean intensity.

    ``state`` is the recursion state after the last sample; passing it to
    ``synthesize_thermal_field`` continues the same field.  The amplitude
    is kept as a read-only view, not copied.
    """

    grid: TimeGrid
    amplitude: np.ndarray = field(repr=False)
    state: tuple[complex, complex, complex] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitude, dtype=complex).view()
        if a.shape != (self.grid.n_samples,):
            raise OutOfRange("amplitude length does not match grid")
        a.flags.writeable = False
        object.__setattr__(self, "amplitude", a)


@dataclass(frozen=True)
class ClickStream:
    """Strictly increasing detection times over [0, duration), kept as a read-only view."""

    times: np.ndarray = field(repr=False)
    duration: float

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float).view()
        if t.ndim != 1:
            raise OutOfRange("click times must be a 1-d array")
        if t.size and (np.any(np.diff(t) <= 0.0) or t[0] < 0.0 or t[-1] >= self.duration):
            raise OutOfRange("click times must be strictly increasing within [0, duration)")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size


def _field_recursion(mu_dt: float) -> tuple[float, float, float]:
    """Coefficients (phi, theta, sigma) of the sampled trigger field.

    The field is white noise through two cascaded first-order low-pass
    filters of rate mu = pi*gamma, so its autocovariance is
    (1 + mu*|tau|) exp(-mu*|tau|).  On a grid of step dt, with a = mu*dt
    and phi = exp(-a), the samples x_k have autocovariance

        R_k = (1 + a*|k|) * phi**|k|.

    (A + B*k) phi**k solves the recursion with the double root phi, so
    y_k = x_k - 2 phi x_{k-1} + phi**2 x_{k-2} is uncorrelated beyond lag
    1: an MA(1) process y_k = sigma*(e_k + theta*e_{k-1}) in unit white
    noise e.  Its lag-0 and lag-1 autocovariances, summed from R_0..R_3,
    are

        c0 = sigma**2 (1 + theta**2) = 2 phi**2 (sinh(2a) - 2a),
        c1 = sigma**2 theta          = 2 phi**2 (a cosh(a) - sinh(a)),

    so theta is the root of theta**2 - (c0/c1) theta + 1 = 0 inside the
    unit circle (the invertible one; theta -> 2 - sqrt(3) as a -> 0) and
    sigma**2 = c1/theta.  The field is therefore exactly ARMA(2,1):

        (1 - phi B)**2 x_k = sigma (1 + theta B) e_k,

    with B the lag operator and R_0 = 1.  c0 and c1 are differences of
    terms ~a that leave ~a**3, so their relative rounding error grows as
    1/a**2: about 5e-14 at the default a = 0.083.
    """
    phi = math.exp(-mu_dt)
    c0 = 2.0 * phi * phi * (math.sinh(2.0 * mu_dt) - 2.0 * mu_dt)
    c1 = 2.0 * phi * phi * (mu_dt * math.cosh(mu_dt) - math.sinh(mu_dt))
    ratio = c0 / c1
    theta = 0.5 * (ratio - math.sqrt(ratio * ratio - 4.0))
    return phi, theta, math.sqrt(c1 / theta)


def _stationary_covariance(mu_dt: float) -> np.ndarray:
    """Covariance of (e_{-1}, x_{-1}, x_{-2}) in the stationary field.

    x_{-1} = sigma * (e_{-1} + ...) holds e_{-1} with weight sigma, x_{-2}
    does not hold it, and neighbouring samples correlate as
    R_1 = (1 + a) phi:

        [[1,     sigma, 0  ],
         [sigma, 1,     R_1],
         [0,     R_1,   1  ]]
    """
    phi, _, sigma = _field_recursion(mu_dt)
    r1 = (1.0 + mu_dt) * phi
    return np.array([[1.0, sigma, 0.0], [sigma, 1.0, r1], [0.0, r1, 1.0]])


def _scan(u: np.ndarray, decay: float, start: complex) -> complex:
    """y_k = exp(-decay)*y_{k-1} + u_k from y_{-1} = ``start``, in place
    over the contiguous array ``u``; returns the last y.

    Blocks of _SCAN_BLOCK samples are scanned at once from a zero start,
    y_j = exp(-decay*j) * cumsum(exp(decay*i) u_i), then each block adds
    its start carried in from the block before (a Python loop over the
    blocks), _SLAB samples at a time so that no temporary spans ``u``.
    decay*_SCAN_BLOCK <= 40 at the ResolutionTooCoarse limit, so the
    factors' relative rounding stays near 40 machine epsilons.
    """
    body = u.size - u.size % _SCAN_BLOCK
    for blocks in (u[:body].reshape(-1, _SCAN_BLOCK), u[body:].reshape(1, -1)):
        if blocks.size == 0:
            continue
        width = blocks.shape[1]
        j = np.arange(width)
        blocks *= np.exp(decay * j)
        np.cumsum(blocks, axis=1, out=blocks)
        blocks *= np.exp(-decay * j)
        step = math.exp(-decay * width)
        starts = []
        for end in blocks[:, -1].tolist():
            starts.append(start)
            start = end + step * start
        carry, fall = np.array(starts), np.exp(-decay * (j + 1))
        rows = max(1, _SLAB // width)
        for r in range(0, len(carry), rows):
            blocks[r : r + rows] += np.multiply.outer(carry[r : r + rows], fall)
    return start


def _stationary_start(rng: np.random.Generator, mu_dt: float) -> tuple[complex, complex, complex]:
    """(e, y, x) at the sample before a fresh field, drawn exactly from the
    stationary law of ``_stationary_covariance``, with y_{-1} = x_{-1} -
    phi x_{-2}; no burn-in is needed."""
    phi = _field_recursion(mu_dt)[0]
    cov = _stationary_covariance(mu_dt)
    e_prev, x_prev, x_prev2 = np.linalg.cholesky(cov) @ _complex_normals(rng, 3)
    return complex(e_prev), complex(x_prev - phi * x_prev2), complex(x_prev)


def _innovations(rng: np.random.Generator, out: np.ndarray, mu_dt: float, e_prev: complex) -> complex:
    """Fill the contiguous complex array ``out`` with the MA(1) innovations
    sigma*(e_k + theta*e_{k-1}) of fresh unit white noise e drawn from
    ``rng``, e_{-1} = ``e_prev``; returns the last e, which continues the
    noise.

    The step runs in place from the end, _SLAB samples at a time, so each
    slab reads e values not yet overwritten and no temporary spans ``out``.
    Needs no state but ``e_prev``, so the next chunk's innovations can be
    drawn while this chunk is filtered.
    """
    _, theta, sigma = _field_recursion(mu_dt)
    n = out.size
    rng.standard_normal(out=out.view(np.float64))
    out *= math.sqrt(0.5)
    e_last = complex(out[-1])
    for stop in range(n, 1, -_SLAB):
        start = max(1, stop - _SLAB)
        slab = out[start:stop]
        slab += theta * out[start - 1 : stop - 1]
        slab *= sigma
    out[:1] += theta * e_prev
    out[:1] *= sigma
    return e_last


def _check_field_step(dt_field: float) -> None:
    if not (math.isfinite(dt_field) and dt_field > 0.0):
        raise OutOfRange(f"field step must be positive, got {dt_field}")


def thermal_field_chunks(
    gamma: float,
    dt_field: float,
    sizes: Sequence[int],
    seeds: Sequence[int],
    state: tuple[complex, complex, complex] | None = None,
) -> Iterator[FieldTrace]:
    """The trigger field with the squared-Lorentzian spectrum, sampled
    exactly, as chunks of ``sizes[k]`` samples with chunk k's noise drawn
    from ``seeds[k]``; each chunk continues the one before without a seam.

    Runs the ARMA(2,1) recursion of ``_field_recursion`` as two first-order
    scans, (1 - phi B) y = sigma (1 + theta B) e and (1 - phi B) x = y,
    over complex unit white noise e.  Every sample has ensemble mean
    intensity exactly 1 and the exact sampled autocovariance.  ``state`` =
    (e, y, x) at the sample before the first continues a field, as
    ``FieldTrace.state`` hands it on; without it the start is drawn by
    ``_stationary_start``.

    Chunk 0's innovations are drawn on the calling thread, so one chunk
    starts no thread.  The helper thread of the pipeline runs only
    ``_innovations``, none of the calls a tracer may wrap (its spans
    assume calls nest on one thread); closing the generator, or running it
    out, joins it.  A yielded chunk's amplitude holds until the next chunk
    is asked for, which reuses its buffer.  The limits are checked when
    the first chunk is asked for.

    Raises
    ------
    ResolutionTooCoarse
        If dt_field > 1/(20*gamma).
    DurationTooShort
        If a field that is not continued (no ``state``) spans less than
        100/gamma to the nearest sample, too few coherence cells for its
        statistics.
    OutOfRange
        Unless there is at least one chunk, each of at least 2 samples, and
        one seed per chunk; checked before any buffer, thread or draw.
    """
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise OutOfRange(f"bandwidth must be positive, got {gamma}")
    _check_field_step(dt_field)
    if dt_field > 1.0 / (20.0 * gamma):
        raise ResolutionTooCoarse(
            f"dt_field {dt_field:.3e} s > 1/(20*gamma) = {1.0 / (20.0 * gamma):.3e} s"
        )
    duration = sum(sizes) * dt_field
    if state is None and duration + 0.5 * dt_field < 100.0 / gamma:
        raise DurationTooShort(f"duration {duration:.3e} s < 100/gamma = {100.0 / gamma:.3e} s")
    if not (len(sizes) and min(sizes) >= 2 and len(seeds) == len(sizes)):
        raise OutOfRange(
            f"need at least one chunk of at least 2 samples and one seed per chunk; got "
            f"{len(sizes)} chunks (smallest {min(sizes, default=0)}) and {len(seeds)} seeds"
        )
    mu_dt = math.pi * gamma * dt_field
    buffers = [np.empty(max(sizes), dtype=complex) for _ in sizes[:2]]
    rng = np.random.default_rng(seeds[0])
    e_last, y_last, x_last = state if state is not None else _stationary_start(rng, mu_dt)
    e_last = _innovations(rng, buffers[0][: sizes[0]], mu_dt, e_last)
    with ThreadPoolExecutor(max_workers=1) as helper:
        for k, size in enumerate(sizes):
            if k + 1 < len(sizes):
                pending = helper.submit(
                    _innovations, np.random.default_rng(seeds[k + 1]),
                    buffers[(k + 1) % 2][: sizes[k + 1]], mu_dt, e_last,
                )
            u = buffers[k % 2][:size]
            y_last, x_last = _scan(u, mu_dt, y_last), _scan(u, mu_dt, x_last)
            grid = TimeGrid(t_start=0.0, dt=dt_field, n_samples=size)
            yield FieldTrace(grid=grid, amplitude=u, state=(e_last, y_last, x_last))
            if k + 1 < len(sizes):
                e_last = pending.result()


def synthesize_thermal_field(
    gamma: float,
    duration: float,
    dt_field: float,
    rng_seed: int,
    state: tuple[complex, complex, complex] | None = None,
) -> FieldTrace:
    """``thermal_field_chunks`` over ``duration`` seconds as one chunk, its
    noise from ``rng_seed``; ``state`` and the limits are as there."""
    _check_field_step(dt_field)
    n_samples = duration / dt_field
    if not (math.isfinite(n_samples) and n_samples >= 0.0):
        raise OutOfRange(f"duration must be finite and non-negative, got {duration}")
    (trace,) = thermal_field_chunks(gamma, dt_field, [round(n_samples)], [rng_seed], state)
    return trace


def _complex_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n circular complex normals with E|z|**2 = 1."""
    z = rng.standard_normal(2 * n).view(complex)
    z *= math.sqrt(0.5)
    return z


def _check_rate(mean_rate: float, dt_field: float) -> None:
    """The thinning's validity bound, fixed by the mean rate and field step alone."""
    if not (math.isfinite(mean_rate) and mean_rate > 0.0):
        raise OutOfRange(f"mean rate must be positive, got {mean_rate}")
    if mean_rate * dt_field > MAX_RATE_DT:
        raise RateTooHigh(
            f"mean_rate*dt_field = {mean_rate * dt_field:.3f} > {MAX_RATE_DT}: refine the field grid"
        )


def sample_clicks(field: FieldTrace, mean_rate: float, rng_seed: int, *, work: dict | None = None) -> ClickStream:
    """Cox-process clicks: thin a homogeneous Poisson stream at the peak
    rate ``mean_rate * max(intensity)`` down to rate(t) = mean_rate * |a(t)|**2.
    Calls that share one ``work`` dict reuse its arrays, with the same times.

    Raises
    ------
    RateTooHigh
        If mean_rate * dt_field > 0.1 (intensity not resolved between
        candidate events).
    """
    dt, n = field.grid.dt, field.grid.n_samples
    _check_rate(mean_rate, dt)
    work = {} if work is None else work

    def buffer(name: str, size: int, dtype: type = float) -> np.ndarray:
        if work.get(name, np.empty(0)).size < size:  # made anew only when too short
            work[name] = np.empty(size, dtype)
        return work[name][:size]
    rng = np.random.default_rng(rng_seed)
    intensity = np.abs(field.amplitude, out=buffer("intensity", n))
    intensity *= intensity
    duration = n * dt
    peak = mean_rate * float(intensity.max())
    n_candidates = rng.poisson(peak * duration)
    times = rng.random(out=buffer("times", n_candidates))
    times *= duration  # uniform(0, duration), bit for bit
    times.sort()
    keep = buffer("keep", n_candidates, bool)
    for start in range(0, n_candidates, _SLAB):  # uniforms drawn in pieces are one draw's bits
        t = times[start : start + _SLAB]
        idx = np.divide(t, dt, out=buffer("idx", t.size, np.int64), casting="unsafe")
        u = rng.random(out=buffer("u", t.size))
        u *= peak
        # mode="clip" bounds idx by n - 1, and leaves ``out`` unbuffered
        rate = np.take(intensity, idx, out=buffer("rate", t.size), mode="clip")
        rate *= mean_rate
        np.less_equal(u, rate, out=keep[start : start + _SLAB])
    return ClickStream(times=times[keep], duration=duration)


@dataclass(frozen=True)
class G2Histogram:
    """Pair-delay histogram normalized by its far-delay plateau."""

    bin_centers: np.ndarray
    g2: np.ndarray
    counts: np.ndarray
    plateau: float


def g2_bin_edges(bin_width: float, max_delay: float) -> np.ndarray:
    """Edges of ``g2_histogram``'s bins, 0 to ``max_delay`` in steps of
    ``bin_width``.  OutOfRange unless the bins tile the range (to 1e-9
    relative), so the last bin counts a whole bin's delays, and at least
    one bin starts in the normalization plateau."""
    if not 0.0 < bin_width < max_delay < math.inf:
        raise OutOfRange("need 0 < bin_width < max_delay < inf")
    n_bins = int(round(max_delay / bin_width))
    if not abs(n_bins * bin_width - max_delay) <= 1e-9 * max_delay:
        raise OutOfRange(f"g2 bins of {bin_width:g} s do not tile the {max_delay:g} s range")
    edges = bin_width * np.arange(n_bins + 1)
    if not np.any(edges[:-1] >= PLATEAU_FRACTION * max_delay):
        raise OutOfRange(f"no g2 bin of {bin_width:g} s starts in the plateau of {max_delay:g} s")
    return edges


def _check_plateau_pairs(n_clicks: float, rate: float, max_delay: float) -> None:
    """InsufficientStatistics unless n_clicks clicks at ``rate`` expect 2,500 plateau pairs."""
    expected = n_clicks * rate * (1.0 - PLATEAU_FRACTION) * max_delay
    if expected < 2500.0:  # 1/sqrt(2500) = 2% relative error
        raise InsufficientStatistics(
            f"~{expected:.0f} plateau pairs expected; need >= 2500 for 2% normalization accuracy"
        )


def g2_histogram(chunks: Iterable[np.ndarray], duration: float, bin_width: float, max_delay: float) -> G2Histogram:
    """Histogram of all ordered pair delays up to ``max_delay`` in one
    stream over ``duration`` seconds, fed as ``chunks`` of click times,
    normalized by the mean bin content over delays in [0.8*max_delay, max_delay].

    The bins are ``g2_bin_edges``.  The caller must pick max_delay >= 5
    correlation times, 5/(pi*gamma), so the plateau is flat (``run_g2``
    refuses a shorter range); the normalization region must hold enough
    pairs for < 2% relative error, otherwise InsufficientStatistics is
    raised once the stream has ended.  Only clicks that a later one can pair
    with, t_last - t <= max_delay (``_out_of_window``), are kept between chunks.
    """
    edges = g2_bin_edges(bin_width, max_delay)
    if not 0.0 < duration < math.inf:
        raise OutOfRange(f"duration must be finite and positive, got {duration}")
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    kept, n = np.empty(0), 0
    for chunk in chunks:
        times = np.concatenate([kept, chunk])
        if not np.all(np.diff(times) > 0.0):
            raise OutOfRange("click times must be strictly increasing, within and across chunks")
        delays = [np.empty(0)]  # of the pairs (j - offset, j), j in this chunk
        for offset in range(1, times.size):
            first = max(kept.size, offset)
            d = times[first:] - times[first - offset : times.size - offset]
            d = d[d <= max_delay]
            if not d.size:
                break
            delays.append(d)
        counts += np.histogram(np.concatenate(delays), bins=edges)[0]
        n += times.size - kept.size
        kept = times[_out_of_window(times, times[-1:], max_delay).sum() :]  # 0 if times is empty
    if n < 2:
        raise InsufficientStatistics("need at least two clicks")
    _check_plateau_pairs(n, n / duration, max_delay)
    plateau = float(counts[edges[:-1] >= PLATEAU_FRACTION * max_delay].mean())
    if plateau <= 0.0:
        raise InsufficientStatistics("empty normalization plateau")
    return G2Histogram(bin_centers=0.5 * (edges[:-1] + edges[1:]), g2=counts / plateau, counts=counts, plateau=plateau)


def _out_of_window(a: np.ndarray, t: np.ndarray, window: float) -> np.ndarray:
    """For each time in ``t``, how many of the sorted times ``a`` satisfy
    t - a > window, read as that float predicate, which holds on a prefix
    of ``a``."""
    count = np.searchsorted(a, t - window)
    # t - window rounds, so the count can miss the predicate's edge by a
    # place or two: step it up while the predicate holds at a[count], then
    # down while it fails at a[count - 1].  In ``padded``, a between -inf
    # and +inf, those are at count + 1 and count, and no step leaves it.
    padded = np.concatenate([[-math.inf], a, [math.inf]])
    while True:
        up = t - padded[count + 1] > window
        if not up.any():
            break
        count += up
    while True:
        down = (count > 0) & (t - padded[count] <= window)
        if not down.any():
            return count
        count -= down


def _clamp_prefix(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of every prefix composition of the clamps
    c_k(y) = min(max(y, lower[k]), upper[k]), in place.

    Two clamps compose to a clamp: c2(c1(y)) has the bounds
    (max(l1, l2), min(max(u1, l2), u2)), an associative step, so
    c_k(...c_0(y)) = min(max(y, lower[k]), upper[k]) on return after
    ceil(log2(n)) doubling passes (a Hillis-Steele prefix scan; Blelloch,
    CMU-CS-90-190, 1990).
    """
    step = 1
    while step < lower.size:
        # the upper bound reads the lower bounds before this pass
        upper[step:] = np.minimum(np.maximum(upper[:-step], lower[step:]), upper[step:])
        lower[step:] = np.maximum(lower[:-step], lower[step:])
        step *= 2
    return lower, upper


class CoincidenceSelector:
    """``select_coincidences`` over one click stream fed in chunks.

    Each ``feed`` takes the next chunk of click times, labels each click
    with the next uniform draw of the one generator of ``rng_seed`` (a
    ``uniform`` drawn in pieces gives the bits of one draw) and returns the
    pairs accepted in that chunk, so the pairs of all chunks are those of
    the joined stream.  Between chunks it keeps only ``pending_a``, the A
    clicks that a later B click could still take (all within ``window`` of
    the last click), ``ready_at``, the end of the dead time, and the last
    click time.

    Within a chunk the selection runs on arrays.  The FIFO of pending A
    clicks is a run a[f:hi] of the time-sorted A clicks, so its front f is
    its whole state.  At the k-th B click, with hi_k A clicks before it and
    lo_k of them beyond its window, a[max(f, lo_k)] is taken when that
    index is below hi_k, and f <- min(max(f, lo_k) + 1, hi_k): a clamp of
    f - k, so every front follows from one prefix scan (``_clamp_prefix``).
    The dead time does not change which A click a B click takes, only
    whether the pair is kept, so the kept pairs are a chain over the taken
    ones: after the pair (t1_i, t2_i) the next one kept is the first whose
    t1 >= t2_i + dead_time.
    """

    def __init__(self, window: float, dead_time: float = 500e-9, rng_seed: int = 0) -> None:
        # written so that NaN fails them too
        if not window > 0.0:
            raise OutOfRange(f"window must be positive, got {window}")
        if not dead_time >= 0.0:
            raise OutOfRange(f"dead time cannot be negative, got {dead_time}")
        self.window = float(window)
        self.dead_time = float(dead_time)
        self.pending_a = np.empty(0)
        self.ready_at = -math.inf
        self._last = -math.inf
        self._rng = np.random.default_rng(rng_seed)

    def feed(self, times: np.ndarray) -> np.ndarray:
        """The (n, 2) pairs (t1, t2) accepted among the next chunk of click
        times, which must be strictly increasing and later than every time
        fed before."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise OutOfRange("click times must be a 1-d array")
        if times.size and not (times[0] > self._last and np.all(np.diff(times) > 0.0)):
            raise OutOfRange("click times must be strictly increasing, within and across chunks")
        return self._select(times, self._rng.uniform(0.0, 1.0, size=times.size) < 0.5)

    def _select(self, times: np.ndarray, is_a: np.ndarray) -> np.ndarray:
        """``feed`` with the A labels given."""
        a = np.concatenate([self.pending_a, times[is_a]])
        at = np.flatnonzero(~is_a)
        b, k = times[at], np.arange(at.size)
        # the A clicks before the k-th B click: those before its place in
        # the chunk, which holds k B clicks before it, and the pending ones
        hi = self.pending_a.size + at - k
        lo = _out_of_window(a, b, self.window)
        # y = f - (k + 1) after the k-th B click steps as
        # y <- min(max(y, lo_k - k), hi_k - k - 1), from y = f = 0
        lower, upper = _clamp_prefix(lo - k, hi - k - 1)
        front = np.minimum(np.maximum(lower, 0), upper) + k + 1
        taken = np.maximum(np.concatenate([[0], front[:-1]]), lo)
        popped = taken < hi
        t1, t2 = a[taken[popped]], b[popped]
        following = np.searchsorted(t1, t2 + self.dead_time).tolist()
        kept = []
        i = int(np.searchsorted(t1, self.ready_at))
        while i < len(following):
            kept.append(i)
            i = following[i]
        if kept:
            self.ready_at = float(t2[kept[-1]]) + self.dead_time
        if times.size:
            self._last = float(times[-1])
        # a later B click drops every A click beyond the window of the last
        # click before it takes one
        stale = int(_out_of_window(a, np.array([self._last]), self.window)[0]) if a.size else 0
        self.pending_a = a[max(int(front[-1]) if b.size else 0, stale) :].copy()
        return np.column_stack([t1[kept], t2[kept]])


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
    Labeling is the only randomness; deterministic for a fixed seed.  The
    one-chunk case of ``CoincidenceSelector``.

    Returns an (n, 2) array of (t1, t2) rows, t2 - t1 > 0; shape (0, 2)
    when no pair is accepted.
    """
    return CoincidenceSelector(window, dead_time, rng_seed).feed(stream.times)
