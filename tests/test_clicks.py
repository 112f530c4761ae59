"""Click statistics: thermal field synthesis, Cox-process clicks, pair
histograms and coincidence selection.

The field has |g1(tau)| = (1 + pi*gamma*tau) exp(-pi*gamma*tau) and, by
the Siegert relation, g2 = 1 + |g1|**2.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from heraldsim.analytic import g2_closed_form
from heraldsim.clicks import (
    _SLAB,
    ClickStream,
    CoincidenceSelector,
    _complex_normals,
    _field_recursion,
    _stationary_covariance,
    g2_bin_edges,
    g2_histogram,
    sample_clicks,
    select_coincidences,
    synthesize_thermal_field,
    thermal_field_chunks,
)
from heraldsim.errors import (
    DurationTooShort,
    InsufficientStatistics,
    OutOfRange,
    RateTooHigh,
    ResolutionTooCoarse,
)
from heraldsim.experiments import ExperimentConfig, run_g2
from heraldsim.modes import overlap_closed_form

from conftest import GAMMA

DT_FIELD = 0.5e-9
# pi*gamma*dt at the ResolutionTooCoarse limit and on the default grid
MU_DT = (math.pi / 20.0, math.pi * GAMMA * DT_FIELD)


def impulse_response(mu_dt: float) -> tuple[float, float, np.ndarray]:
    """(phi, sigma, psi) with x_k = sigma * sum_j psi_j e_{k-j} for
    (1 - phi B)**2 x = sigma (1 + theta B) e, summed far enough to vanish."""
    phi, theta, sigma = _field_recursion(mu_dt)
    j = np.arange(int(80.0 / mu_dt))
    return phi, sigma, phi ** (j - 1.0) * ((j + 1) * phi + j * theta)


def intensity(field) -> np.ndarray:
    return np.abs(field.amplitude) ** 2


def poisson_stream(rate: float, duration: float, seed: int) -> ClickStream:
    """Homogeneous Poisson control stream."""
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate * duration)
    times = np.sort(rng.uniform(0.0, duration, size=n))
    times = times[np.concatenate([[True], np.diff(times) > 0.0])]
    return ClickStream(times=times, duration=duration)


def reference_clicks(field, mean_rate: float, rng_seed: int) -> np.ndarray:
    """The thinning as first written, every array made anew."""
    rng = np.random.default_rng(rng_seed)
    n, dt = field.grid.n_samples, field.grid.dt
    rate = intensity(field)
    peak = mean_rate * float(rate.max())
    n_candidates = rng.poisson(peak * n * dt)
    times = np.sort(rng.uniform(0.0, n * dt, size=n_candidates))
    idx = np.minimum((times / dt).astype(np.int64), n - 1)
    keep = rng.uniform(0.0, 1.0, size=n_candidates) * peak <= mean_rate * rate[idx]
    return times[keep]


@pytest.fixture(scope="module")
def field():
    return synthesize_thermal_field(GAMMA, 2e-4, DT_FIELD, rng_seed=101)


@pytest.fixture(scope="module")
def click_field():
    return synthesize_thermal_field(GAMMA, 2e-4, DT_FIELD, rng_seed=102)


class TestThermalField:
    def test_mean_intensity(self, field):
        # ~ 3e4 coherence cells: the realized mean fluctuates at the 0.6% level
        assert np.mean(intensity(field)) == pytest.approx(1.0, abs=0.03)

    def test_thermal_second_moment(self, field):
        # circular Gaussian field: <I**2> = 2 <I>**2
        assert np.mean(intensity(field) ** 2) == pytest.approx(2.0, abs=0.12)

    def test_intensity_exponential(self, field):
        # thin to ~1 sample per 60 ns so the draws are effectively independent
        step = int(round(60e-9 / DT_FIELD))
        sub = intensity(field)[::step]
        sub = sub / sub.mean()
        d = stats.kstest(sub, "expon").statistic
        assert d * math.sqrt(sub.size) < 1.628  # 1% critical value

    def test_first_order_coherence(self, field):
        # |<E(t) E*(t+tau)>| / <|E|**2> vs (1 + pi g tau) exp(-pi g tau)
        a = field.amplitude
        denom = float(np.mean(np.abs(a) ** 2))
        for lag_ns in (0.0, 2.0, 4.0, 6.0, 10.0, 14.0, 18.0):
            lag = int(round(lag_ns * 1e-9 / DT_FIELD))
            if lag == 0:
                est = 1.0
            else:
                est = abs(np.mean(a[:-lag] * np.conj(a[lag:]))) / denom
            assert est == pytest.approx(
                overlap_closed_form(lag_ns * 1e-9, GAMMA), abs=0.02
            )

    def test_deterministic(self):
        a = synthesize_thermal_field(GAMMA, 1e-5, DT_FIELD, rng_seed=7)
        b = synthesize_thermal_field(GAMMA, 1e-5, DT_FIELD, rng_seed=7)
        np.testing.assert_array_equal(a.amplitude, b.amplitude)

    def test_resolution_guard(self):
        with pytest.raises(ResolutionTooCoarse):
            synthesize_thermal_field(GAMMA, 1e-4, 1e-9, rng_seed=1)

    def test_duration_guard(self):
        with pytest.raises(DurationTooShort):
            synthesize_thermal_field(GAMMA, 1e-6, DT_FIELD, rng_seed=1)

    def test_bad_gamma(self):
        with pytest.raises(OutOfRange):
            synthesize_thermal_field(-1.0, 1e-4, DT_FIELD, rng_seed=1)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, -1e-4, 1e300])
    def test_bad_duration(self, duration):
        with pytest.raises(OutOfRange, match="duration"):
            synthesize_thermal_field(GAMMA, duration, DT_FIELD, rng_seed=1)

    @pytest.mark.parametrize("dt_field", [math.nan, math.inf, 0.0, -DT_FIELD])
    def test_bad_field_step(self, dt_field):
        with pytest.raises(OutOfRange, match="field step"):
            synthesize_thermal_field(GAMMA, 1e-4, dt_field, rng_seed=1)

    @pytest.mark.parametrize("state", [None, (0j, 0j, 0j)], ids=["fresh", "continued"])
    @pytest.mark.parametrize("dt_field", [math.nan, math.inf, 0.0, -DT_FIELD])
    def test_chunks_reject_bad_field_step_before_drawing(self, monkeypatch, dt_field, state):
        def no_draw(*args):
            raise AssertionError("innovations drawn for an invalid field step")

        monkeypatch.setattr("heraldsim.clicks._innovations", no_draw)
        with pytest.raises(OutOfRange, match="field step"):
            next(thermal_field_chunks(GAMMA, dt_field, [4096, 4096], [1, 2], state))

    @pytest.mark.parametrize(
        "sizes, seeds, state",
        [
            ([], [], (0j, 0j, 0j)),
            ([0], [1], (0j, 0j, 0j)),
            ([1], [1], (0j, 0j, 0j)),
            ([4096, 1], [1, 2], (0j, 0j, 0j)),
            ([4096, 4096], [1], None),
            ([4096, 4096], [1, 2, 3], (0j, 0j, 0j)),
        ],
        ids=["no_chunk", "empty_chunk", "one_sample_chunk", "one_sample_last_chunk",
             "too_few_seeds", "too_many_seeds"],
    )
    def test_chunks_reject_bad_sizes_before_drawing(self, monkeypatch, sizes, seeds, state):
        def no_work(*args, **kwargs):
            raise AssertionError("a thread or draw for invalid chunks")

        for name in ("_innovations", "_stationary_start", "ThreadPoolExecutor"):
            monkeypatch.setattr(f"heraldsim.clicks.{name}", no_work)
        with pytest.raises(OutOfRange, match="one seed per chunk"):
            next(thermal_field_chunks(GAMMA, DT_FIELD, sizes, seeds, state))

    @pytest.mark.parametrize("mu_dt", MU_DT, ids=["coarse_limit", "default"])
    def test_recursion_autocovariance_exact(self, mu_dt):
        # sigma**2 * sum_j psi_j psi_{j+k} against (1 + a k) phi**k
        phi, sigma, psi = impulse_response(mu_dt)
        assert psi[0] == pytest.approx(1.0, abs=1e-15)
        for k in range(40):
            sampled = sigma**2 * np.dot(psi[: psi.size - k], psi[k:])
            assert sampled == pytest.approx((1.0 + mu_dt * k) * phi**k, abs=1e-12)

    @pytest.mark.parametrize("mu_dt", MU_DT, ids=["coarse_limit", "default"])
    def test_stationary_start_covariance(self, mu_dt):
        # the start draw's covariance of (e_{-1}, x_{-1}, x_{-2}) from the
        # impulse response
        _, sigma, psi = impulse_response(mu_dt)
        var = sigma**2 * np.dot(psi, psi)
        lag1 = sigma**2 * np.dot(psi[:-1], psi[1:])
        expected = [[1.0, sigma * psi[0], 0.0], [sigma * psi[0], var, lag1], [0.0, lag1, var]]
        np.testing.assert_allclose(_stationary_covariance(mu_dt), expected, rtol=0.0, atol=1e-12)

    def test_chunks_match_plain_recursion(self):
        # chunks continuing one another equal one Python loop of
        # x_k = 2 phi x_{k-1} - phi**2 x_{k-2} + sigma (e_k + theta e_{k-1})
        # over the same noise, with no seam where a chunk starts; the last
        # chunk spans slabs of the in-place innovation and carry steps
        e_prev, y_prev, x_prev = 0.3 - 0.2j, 0.05 + 0.01j, -0.7 + 0.4j
        sizes, seeds = (4001, 517, 1500, 2 * _SLAB + 3), (21, 22, 23, 24)
        state, parts = (e_prev, y_prev, x_prev), []
        for size, seed in zip(sizes, seeds):
            field = synthesize_thermal_field(GAMMA, size * DT_FIELD, DT_FIELD, seed, state)
            state = field.state
            parts.append(field.amplitude)
        streamed = np.concatenate(parts)
        noise = np.concatenate([
            _complex_normals(np.random.default_rng(seed), size) for size, seed in zip(sizes, seeds)
        ])
        phi, theta, sigma = _field_recursion(math.pi * GAMMA * DT_FIELD)
        x1, x2 = x_prev, (x_prev - y_prev) / phi
        reference = []
        for e in noise.tolist():
            x = 2.0 * phi * x1 - phi * phi * x2 + sigma * (e + theta * e_prev)
            reference.append(x)
            x1, x2, e_prev = x, x1, e
        np.testing.assert_allclose(streamed, reference, rtol=0.0, atol=1e-12)
        assert abs(state[2] - reference[-1]) < 1e-12

    def test_stationary_start(self):
        # a fresh field starts in the stationary law: the first samples
        # already have unit mean intensity (a zero start gives ~0.007 at
        # sample 0) and lag-1 covariance R_1
        dt = 1.0 / (20.0 * GAMMA)
        heads = np.array([
            synthesize_thermal_field(GAMMA, 100.0 / GAMMA, dt, seed).amplitude[:8]
            for seed in range(1000)
        ])
        intensity = np.mean(np.abs(heads) ** 2, axis=0)
        # |x_k|**2 is exponential: stderr 1/sqrt(1000) per sample
        np.testing.assert_allclose(intensity, 1.0, atol=5.0 / math.sqrt(1000))
        lag1 = np.mean(heads[:, 1] * np.conj(heads[:, 0])).real
        assert lag1 == pytest.approx((1.0 + math.pi / 20.0) * math.exp(-math.pi / 20.0), abs=0.16)


class TestSampleClicks:
    def test_count_near_expectation(self, click_field):
        stream = sample_clicks(click_field, 5e7, rng_seed=103)
        # bunching inflates the count variance by 1 + rate * 5/(2 pi gamma)
        expected = 5e7 * 2e-4
        excess = 1.0 + 5e7 * 5.0 / (2.0 * math.pi * GAMMA)
        assert abs(len(stream) - expected) < 5.0 * math.sqrt(expected * excess)

    def test_times_sorted_in_range(self, click_field):
        stream = sample_clicks(click_field, 5e7, rng_seed=104)
        assert np.all(np.diff(stream.times) > 0.0)
        assert stream.times[0] >= 0.0 and stream.times[-1] < stream.duration

    def test_deterministic(self, click_field):
        a = sample_clicks(click_field, 5e7, rng_seed=105)
        b = sample_clicks(click_field, 5e7, rng_seed=105)
        np.testing.assert_array_equal(a.times, b.times)

    def test_rate_guard(self, click_field):
        with pytest.raises(RateTooHigh):
            sample_clicks(click_field, 5e8, rng_seed=1)
        with pytest.raises(OutOfRange):
            sample_clicks(click_field, -1.0, rng_seed=1)

    def test_clicks_follow_intensity(self, click_field):
        # clicks should land preferentially where the intensity is high
        stream = sample_clicks(click_field, 5e7, rng_seed=106)
        idx = np.minimum(
            (stream.times / DT_FIELD).astype(int), click_field.grid.n_samples - 1
        )
        mean_at_clicks = float(np.mean(intensity(click_field)[idx]))
        # for a thermal beam the intensity at click times averages <I**2>/<I> ~ 2
        assert mean_at_clicks == pytest.approx(2.0, abs=0.15)

    def test_reused_arrays_give_the_same_times(self):
        # one work dict across chunks of falling and rising size: a smaller
        # chunk after a larger one reads only a prefix of each array, and a
        # chunk with more candidates than the arrays hold makes them anew;
        # each chunk's times are those of a fresh call and of the former
        # formula, bit for bit
        fields = [
            synthesize_thermal_field(GAMMA, samples * DT_FIELD, DT_FIELD, rng_seed=seed)
            for samples, seed in ((2**17, 131), (5_000, 132), (2**17 + 7, 133))
        ]
        work: dict = {}
        for k, (field, mean_rate) in enumerate(zip(fields, (5e7, 5e7, 1.5e8))):
            before = dict(work)
            got = sample_clicks(field, mean_rate, rng_seed=140 + k, work=work).times
            assert got.tobytes() == sample_clicks(field, mean_rate, rng_seed=140 + k).times.tobytes()
            assert got.tobytes() == reference_clicks(field, mean_rate, rng_seed=140 + k).tobytes()
            if k == 1:
                assert all(work[name] is array for name, array in before.items())
            if k == 2:
                assert work["times"] is not before["times"]
        assert work["times"].size > 3 * _SLAB  # the last chunk took several slabs


class TestG2Histogram:
    def test_thermal_bunching_curve(self):
        field = synthesize_thermal_field(GAMMA, 4e-3, DT_FIELD, rng_seed=107)
        stream = sample_clicks(field, 5e7, rng_seed=108)
        hist = g2_histogram([stream.times], stream.duration, bin_width=0.5e-9, max_delay=60e-9)
        theory = g2_closed_form(hist.bin_centers, GAMMA)
        assert hist.g2[0] == pytest.approx(2.0, abs=0.12)
        assert float(np.max(np.abs(hist.g2 - theory))) < 0.12
        # plateau normalization is consistent: far bins sit near 1
        assert float(np.mean(hist.g2[hist.bin_centers > 48e-9])) == pytest.approx(
            1.0, abs=0.02
        )

    def test_poisson_stream_is_flat(self):
        stream = poisson_stream(5e7, 4e-3, seed=109)
        hist = g2_histogram([stream.times], stream.duration, bin_width=0.5e-9, max_delay=60e-9)
        np.testing.assert_allclose(hist.g2, 1.0, atol=0.1)

    def test_insufficient_statistics(self):
        stream = poisson_stream(1e6, 1e-4, seed=110)
        with pytest.raises(InsufficientStatistics):
            g2_histogram([stream.times], stream.duration, bin_width=0.5e-9, max_delay=60e-9)

    def test_argument_guards(self):
        stream = poisson_stream(5e7, 1e-3, seed=111)
        with pytest.raises(OutOfRange):
            g2_histogram([stream.times], stream.duration, bin_width=0.0, max_delay=60e-9)
        with pytest.raises(OutOfRange):
            g2_histogram([stream.times], stream.duration, bin_width=1e-9, max_delay=0.5e-9)
        for bin_width, max_delay in [(1e-9, math.nan), (1e-9, math.inf), (math.nan, 60e-9)]:
            with pytest.raises(OutOfRange):
                g2_histogram([stream.times], stream.duration, bin_width=bin_width, max_delay=max_delay)

    @pytest.mark.parametrize(
        "bin_width, max_delay",
        [(40e-9, 60e-9), (0.7e-9, 60e-9), (30e-9, 60e-9)],
        ids=["two_bins_past_the_range", "last_bin_past_the_range", "no_plateau_bin"],
    )
    def test_bins_tile_the_range_and_reach_the_plateau(self, bin_width, max_delay):
        # a last bin that reaches past max_delay counts only part of its
        # delays and reads low; with no bin in the plateau the normalization
        # is the mean of nothing
        stream = poisson_stream(5e7, 4e-3, seed=112)
        with pytest.raises(OutOfRange):
            g2_histogram([stream.times], stream.duration, bin_width=bin_width, max_delay=max_delay)


MAX_DELAY = 60.0 * 1e-9  # as run_g2 scales g2_max_delay_ns


def reference_g2_counts(times: np.ndarray, edges: np.ndarray, max_delay: float) -> np.ndarray:
    """The pair-delay counts of the joined stream, offset by offset, as
    ``g2_histogram`` first counted them."""
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for offset in range(1, times.size):
        delays = times[offset:] - times[:-offset]
        within = delays <= max_delay
        if not np.any(within):
            break
        counts += np.histogram(delays[within], bins=edges)[0]
    return counts


def edge_example(bin_ns: float) -> tuple[np.ndarray, list[int], float, float]:
    """Clicks at 0, 1, 2 and 4 times MAX_DELAY, so two delays are exactly
    MAX_DELAY (one across a cut), among 600 others; an empty and a
    one-click chunk follow the cut."""
    times = np.unique(np.concatenate([MAX_DELAY * np.array([0.0, 1.0, 2.0, 4.0]), np.linspace(0.1e-9, 0.5e-6, 600)]))
    at = int(np.searchsorted(times, MAX_DELAY))
    return times, [0, at, at, at + 1, times.size], 0.5e-6, bin_ns


@st.composite
def chunked_streams(draw):
    """A dense click stream over ``span`` seconds, about a click per
    nanosecond so that the plateau check passes, cut into chunks.  Besides
    uniform clicks it holds a grid of MAX_DELAY / q (q = 1 puts delays on
    MAX_DELAY itself), all after an offset of 0 or 0.08 s; the random cuts
    always include an empty and a one-click chunk."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    span = draw(st.floats(0.4e-6, 0.7e-6))
    step = MAX_DELAY / draw(st.sampled_from([1, 3, 7, 40]))
    grid = step * np.arange(int(span / step))
    times = np.concatenate([rng.uniform(0.0, span, size=draw(st.integers(500, 800))), grid])
    times = np.unique(times + draw(st.sampled_from([0.0, 0.08])))
    at = draw(st.integers(0, times.size - 1))
    cuts = sorted(draw(st.lists(st.integers(0, times.size), max_size=6)) + [at, at, at + 1])
    return times, [0, *cuts, times.size], span, draw(st.sampled_from([0.5, 0.6]))


class TestG2Counter:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(chunked_streams())
    @example(edge_example(0.5))
    @example(edge_example(0.6))
    def test_chunks_match_the_joined_stream(self, case):
        times, bounds, duration, bin_ns = case
        edges = g2_bin_edges(bin_ns * 1e-9, MAX_DELAY)
        # at 0.5 ns the last edge is max_delay; at 0.6 ns it is one ulp
        # below, so a delay of exactly max_delay passes the filter and falls
        # outside every bin
        assert edges[-1] == (MAX_DELAY if bin_ns == 0.5 else np.nextafter(MAX_DELAY, 0.0))
        want = reference_g2_counts(times, edges, MAX_DELAY)
        one = g2_histogram([times], duration, bin_ns * 1e-9, MAX_DELAY)
        chunks = (times[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
        got = g2_histogram(chunks, duration, bin_ns * 1e-9, MAX_DELAY)
        for hist in (one, got):
            assert hist.counts.tobytes() == want.tobytes()
            assert hist.g2.tobytes() == (want / hist.plateau).tobytes()
        assert got.plateau == one.plateau

    def test_delays_on_max_delay(self):
        # the reference counts the exact delay max_delay in the last bin at
        # 0.5 ns and drops it at 0.6 ns, so the examples above test both
        probe = MAX_DELAY * np.array([0.0, 1.0, 2.0])
        assert np.all(np.isin(probe, edge_example(0.5)[0]))
        assert np.all(np.diff(probe) == MAX_DELAY)
        last = {}
        for bin_ns in (0.5, 0.6):
            edges = g2_bin_edges(bin_ns * 1e-9, MAX_DELAY)
            last[bin_ns] = reference_g2_counts(probe, edges, MAX_DELAY)[-1]
        assert last == {0.5: 2, 0.6: 0}

    def test_unordered_chunks_rejected(self):
        for chunks in (
            [np.array([1e-6, 2e-6]), np.array([2e-6, 3e-6])],  # a repeat across the cut
            [np.array([1e-6, 2e-6]), np.array([1.5e-6, 3e-6])],  # back in time across the cut
            [np.array([1e-6, 2e-6]), np.array([]), np.array([1.5e-6])],  # across an empty chunk
            [np.array([2e-6, 1e-6])],  # within one chunk
        ):
            with pytest.raises(OutOfRange):
                g2_histogram(chunks, 1e-5, 0.5e-9, MAX_DELAY)

    def test_duration_guard(self):
        for duration in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(OutOfRange):
                g2_histogram([np.array([1e-9, 2e-9])], duration, 0.5e-9, MAX_DELAY)


class TestSelectCoincidences:
    def test_empty_stream(self):
        empty = ClickStream(times=np.array([]), duration=1e-3)
        assert select_coincidences(empty, window=65e-9).shape == (0, 2)

    def test_window_guard(self):
        stream = poisson_stream(5e7, 1e-4, seed=112)
        with pytest.raises(OutOfRange):
            select_coincidences(stream, window=0.0)
        with pytest.raises(OutOfRange):
            select_coincidences(stream, window=65e-9, dead_time=-1e-9)

    def test_nan_window_rejected(self):
        stream = poisson_stream(5e7, 1e-4, seed=112)
        with pytest.raises(OutOfRange):
            select_coincidences(stream, window=math.nan)

    def test_nan_dead_time_rejected(self):
        stream = poisson_stream(5e7, 1e-4, seed=112)
        with pytest.raises(OutOfRange):
            select_coincidences(stream, window=65e-9, dead_time=math.nan)

    def test_pair_invariants(self):
        stream = poisson_stream(5e7, 2e-3, seed=113)
        window, dead = 65e-9, 500e-9
        pairs = select_coincidences(stream, window=window, dead_time=dead)
        assert pairs.ndim == 2 and pairs.shape[1] == 2
        assert len(pairs) > 100
        t1, t2 = pairs[:, 0], pairs[:, 1]
        assert np.all((t2 - t1 > 0.0) & (t2 - t1 <= window))
        assert np.all(t1[1:] >= t2[:-1] + dead)

    def test_deterministic(self):
        stream = poisson_stream(5e7, 5e-4, seed=114)
        a = select_coincidences(stream, window=65e-9, rng_seed=9)
        b = select_coincidences(stream, window=65e-9, rng_seed=9)
        np.testing.assert_array_equal(a, b)

    def test_bunching_shortens_delays(self):
        # thermal pairs crowd toward zero delay; Poisson pairs do not
        field = synthesize_thermal_field(GAMMA, 4e-3, DT_FIELD, rng_seed=115)
        thermal = sample_clicks(field, 1e7, rng_seed=116)
        control = poisson_stream(len(thermal) / thermal.duration, 4e-3, seed=117)
        window = 6e-9
        dt_th = np.diff(select_coincidences(thermal, window, dead_time=0.0), axis=1).ravel()
        dt_po = np.diff(select_coincidences(control, window, dead_time=0.0), axis=1).ravel()
        assert len(dt_th) > 300 and len(dt_po) > 300
        assert np.mean(dt_po) == pytest.approx(window / 2.0, abs=0.4e-9)
        assert np.mean(dt_th) < np.mean(dt_po) - 0.2e-9

    def test_half_window_ratio_tracks_g2(self):
        # counts in [0, w/2] vs [w/2, w] follow the g2 integral ratio
        field = synthesize_thermal_field(GAMMA, 4e-3, DT_FIELD, rng_seed=118)
        stream = sample_clicks(field, 1e7, rng_seed=119)
        window = 6e-9
        pairs = select_coincidences(stream, window, dead_time=0.0)
        delays = pairs[:, 1] - pairs[:, 0]
        near = int(np.sum(delays <= window / 2))
        far = int(np.sum(delays > window / 2))
        taus = np.linspace(0.0, window, 1001)
        g2 = g2_closed_form(taus, GAMMA)
        half = taus.size // 2
        expected = np.trapezoid(g2[: half + 1], taus[: half + 1]) / np.trapezoid(
            g2[half:], taus[half:]
        )
        ratio = near / far
        sigma = ratio * math.sqrt(1.0 / near + 1.0 / far)
        assert abs(ratio - expected) < 4.0 * sigma + 0.05 * expected


def reference_pairs(times: np.ndarray, is_a: np.ndarray, window: float, dead_time: float) -> np.ndarray:
    """Coincidence selection as a per-click loop over a FIFO of pending A
    clicks: the rule ``CoincidenceSelector`` runs on arrays."""
    pairs: list[tuple[float, float]] = []
    pending_a: deque[float] = deque()
    ready_at = -math.inf
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


def drawn_labels(n: int, rng_seed: int) -> np.ndarray:
    """The A labels ``select_coincidences`` draws for n clicks."""
    return np.random.default_rng(rng_seed).uniform(0.0, 1.0, size=n) < 0.5


@st.composite
def labelled_streams(draw):
    """(times, A labels, chunk bounds, window, dead time) on a grid of
    ``scale`` steps, so that t - a == window occurs exactly (scale 1) and
    within rounding of it (the other scales, and the offset that coarsens
    the float spacing as real click times do)."""
    scale = draw(st.sampled_from([1.0, 0.1, 0.3, 1e-9]))
    offset = draw(st.sampled_from([0.0, 0.08]))
    gaps = draw(st.lists(st.integers(1, 6), max_size=80))
    times = offset + np.cumsum(np.array(gaps, dtype=np.int64)) * scale
    n = times.size
    labels = draw(st.one_of(
        st.just([True] * n), st.just([False] * n), st.lists(st.booleans(), min_size=n, max_size=n),
    ))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    window = draw(st.one_of(st.integers(1, 12).map(lambda w: w * scale), st.just(math.inf)))
    dead_time = draw(st.one_of(st.integers(0, 12).map(lambda d: d * scale), st.just(math.inf)))
    return times, np.array(labels, dtype=bool), [0, *cuts, n], window, dead_time


class TestCoincidenceSelector:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(labelled_streams(), st.integers(0, 2**32))
    def test_chunks_match_the_reference_loop(self, case, rng_seed):
        times, is_a, bounds, window, dead_time = case
        want = reference_pairs(times, is_a, window, dead_time)
        chunks = list(zip(bounds[:-1], bounds[1:]))
        # the labels given, chunk by chunk
        selector = CoincidenceSelector(window, dead_time)
        got = [selector._select(times[lo:hi], is_a[lo:hi]) for lo, hi in chunks]
        assert np.concatenate(got).tobytes() == want.tobytes()
        # the labels drawn, chunk by chunk and in one chunk
        want = reference_pairs(times, drawn_labels(times.size, rng_seed), window, dead_time)
        selector = CoincidenceSelector(window, dead_time, rng_seed)
        got = [selector.feed(times[lo:hi]) for lo, hi in chunks]
        assert np.concatenate(got).tobytes() == want.tobytes()
        stream = ClickStream(times=times, duration=times[-1] + 1.0 if times.size else 1.0)
        one = select_coincidences(stream, window, dead_time, rng_seed)
        assert one.shape == want.shape and one.tobytes() == want.tobytes()

    def test_thermal_stream_in_chunks_matches_the_reference_loop(self):
        # long runs of pending A clicks, windows across chunk bounds, and
        # the default window and dead time at real click times
        field = synthesize_thermal_field(GAMMA, 1e-3, DT_FIELD, rng_seed=120)
        times = sample_clicks(field, 5e7, rng_seed=121).times
        for window, dead_time in [(65e-9, 500e-9), (65e-9, 0.0), (1e-6, 0.0)]:
            want = reference_pairs(times, drawn_labels(times.size, 122), window, dead_time)
            selector = CoincidenceSelector(window, dead_time, 122)
            got = [selector.feed(chunk) for chunk in np.array_split(times, 37)]
            assert len(want) > 100
            assert np.concatenate(got).tobytes() == want.tobytes()

    def test_pending_clicks_stay_within_one_window(self):
        # the state carried between chunks does not grow with the stream:
        # the pending A clicks lie within one window of the last click
        stream = poisson_stream(5e7, 2e-3, seed=123)
        window = 65e-9
        selector = CoincidenceSelector(window, 500e-9, rng_seed=124)
        fed = 0
        for chunk in np.array_split(stream.times, 50):
            selector.feed(chunk)
            fed += chunk.size
            last = stream.times[fed - 1]
            in_window = np.sum(last - stream.times[:fed] <= window)
            assert selector.pending_a.size < in_window + 1
            assert np.all(last - selector.pending_a <= window)

    def test_unordered_chunks_rejected(self):
        selector = CoincidenceSelector(65e-9)
        selector.feed(np.array([1e-6, 2e-6]))
        for bad in (np.array([2e-6, 3e-6]), np.array([3e-6, 3e-6]), np.array([[3e-6]]), np.array([math.nan])):
            with pytest.raises(OutOfRange):
                selector.feed(bad)


class TestStreamValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(OutOfRange):
            ClickStream(times=np.array([2e-6, 1e-6]), duration=1e-5)

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRange):
            ClickStream(times=np.array([2e-5]), duration=1e-5)

    def test_keeps_a_read_only_view(self):
        times = np.array([1e-6, 2e-6, 3e-6])
        stream = ClickStream(times=times, duration=1e-5)
        assert np.shares_memory(stream.times, times)
        assert not stream.times.flags.writeable
        assert times.flags.writeable


class TestCsvWriters:
    def test_g2_csv_with_theory(self, tmp_path):
        # g2.csv comes from the g2 driver, which tabulates the histogram
        # next to its closed form
        config = ExperimentConfig(gamma_hz=GAMMA, g2_n_events=50_000, g2_bin_ns=1.0, rng_seed=120)
        run_g2(config, tmp_path)
        lines = (tmp_path / "g2.csv").read_text().splitlines()
        assert lines[0] == "delay_ns,g2_empirical,g2_theory"
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.5)  # first bin center in ns
        assert float(first[2]) == pytest.approx(g2_closed_form(0.5e-9, GAMMA), rel=1e-9)
