"""Temporal-mode construction: trigger profiles, overlaps, orthonormal bases.

Reference constants were computed with mpmath at 50 digits; see
scripts/compute_reference_values.py.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim.errors import (
    DegenerateModes,
    GridMismatch,
    InvalidGamma,
    MarginTooSmall,
    RankDeficient,
)
from heraldsim.experiments import write_csv
from heraldsim.modes import (
    HeraldPair,
    ModeFunction,
    TimeGrid,
    default_grid,
    extend_orthonormal_basis,
    make_symmetric_antisymmetric,
    make_trigger_mode,
    overlap,
    overlap_closed_form,
)

from conftest import GAMMA, MID, herald_times

# sqrt(pi * 53 MHz), the peak amplitude of the continuous trigger profile
PEAK_AMPLITUDE = 12903.6588083
# closed-form overlaps at the two delays used throughout
OVERLAP_10NS = 0.50417921002
OVERLAP_40NS = 0.00981207596997


class TestTimeGrid:
    def test_times_and_duration(self):
        g = TimeGrid(t_start=1e-9, dt=0.5e-9, n_samples=5)
        np.testing.assert_allclose(g.times(), 1e-9 + 0.5e-9 * np.arange(5))
        assert g.duration == pytest.approx(2e-9)
        assert g.t_end == pytest.approx(3e-9)

    def test_default_grid_shape(self):
        g = default_grid()
        assert g.n_samples == 5001
        assert g.dt == pytest.approx(0.1e-9)
        assert g.t_end == pytest.approx(500e-9)

    @pytest.mark.parametrize("dt", [0.0, -1e-9, math.inf, math.nan])
    def test_rejects_bad_step(self, dt):
        with pytest.raises(GridMismatch):
            TimeGrid(t_start=0.0, dt=dt, n_samples=10)

    def test_rejects_single_sample(self):
        with pytest.raises(GridMismatch):
            TimeGrid(t_start=0.0, dt=1e-9, n_samples=1)


class TestTriggerMode:
    def test_peak_amplitude(self, grid):
        m = make_trigger_mode(MID, GAMMA, grid)
        # discrete renormalization shifts the sampled peak by O(dt) only
        assert np.max(m.samples) == pytest.approx(PEAK_AMPLITUDE, rel=1e-3)

    def test_discrete_norm_is_one(self, grid):
        m = make_trigger_mode(MID, GAMMA, grid)
        assert m.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert m.normalized

    def test_even_symmetry_about_herald(self, grid):
        # herald on a grid point: profile must read the same both ways
        m = make_trigger_mode(MID, GAMMA, grid)
        k = int(np.argmax(m.samples))
        w = min(k, grid.n_samples - 1 - k)
        left = m.samples[k - w : k][::-1]
        right = m.samples[k + 1 : k + 1 + w]
        np.testing.assert_allclose(left, right, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -53e6, math.inf, math.nan])
    def test_invalid_gamma(self, gamma, grid):
        with pytest.raises(InvalidGamma):
            make_trigger_mode(MID, gamma, grid)

    def test_margin_guard(self, grid):
        # 10/(pi*gamma) ~ 60 ns of margin required on each side
        with pytest.raises(MarginTooSmall):
            make_trigger_mode(10e-9, GAMMA, grid)
        with pytest.raises(MarginTooSmall):
            make_trigger_mode(495e-9, GAMMA, grid)

    @pytest.mark.parametrize("t_i", [math.nan, math.inf, -math.inf])
    def test_non_finite_herald_time(self, t_i, grid):
        # a NaN time fails every comparison, so the guard must not rely on
        # one being true
        with pytest.raises(MarginTooSmall):
            make_trigger_mode(t_i, GAMMA, grid)

    def test_samples_read_only(self, grid):
        m = make_trigger_mode(MID, GAMMA, grid)
        with pytest.raises(ValueError):
            m.samples[0] = 0.0

    def test_mode_shape_mismatch(self, grid):
        with pytest.raises(GridMismatch):
            ModeFunction(grid=grid, samples=np.ones(7))

    def test_normalized_flag_checked(self, grid):
        with pytest.raises(GridMismatch):
            ModeFunction(grid=grid, samples=np.ones(grid.n_samples), normalized=True)


class TestOverlap:
    def test_closed_form_frozen_values(self):
        assert overlap_closed_form(10e-9, GAMMA) == pytest.approx(OVERLAP_10NS, abs=1e-9)
        assert overlap_closed_form(40e-9, GAMMA) == pytest.approx(OVERLAP_40NS, abs=1e-12)
        assert overlap_closed_form(0.0, GAMMA) == 1.0

    def test_closed_form_even_and_decreasing(self):
        assert overlap_closed_form(-10e-9, GAMMA) == overlap_closed_form(10e-9, GAMMA)
        d = np.linspace(0.0, 100e-9, 400)
        vals = overlap_closed_form(d, GAMMA)
        assert vals.shape == d.shape
        assert np.all(np.diff(vals) < 0.0)

    def test_discrete_overlap_matches_closed_form(self, grid):
        for dns in (5.0, 10.0, 25.0, 40.0, 60.0):
            t1, t2 = herald_times(dns * 1e-9)
            g1 = make_trigger_mode(t1, GAMMA, grid)
            g2 = make_trigger_mode(t2, GAMMA, grid)
            assert overlap(g1, g2) == pytest.approx(
                overlap_closed_form(dns * 1e-9, GAMMA), abs=1e-4
            )

    @settings(max_examples=25, deadline=None)
    @given(delta_ns=st.floats(min_value=0.1, max_value=100.0))
    def test_discrete_overlap_property(self, delta_ns):
        grid = default_grid()
        t1, t2 = herald_times(delta_ns * 1e-9)
        g1 = make_trigger_mode(t1, GAMMA, grid)
        g2 = make_trigger_mode(t2, GAMMA, grid)
        ov = overlap(g1, g2)
        assert 0.0 < ov < 1.0
        assert ov == pytest.approx(overlap_closed_form(delta_ns * 1e-9, GAMMA), abs=1e-4)

    def test_grid_mismatch(self, grid):
        other = default_grid(dt=0.2e-9)
        a = make_trigger_mode(MID, GAMMA, grid)
        b = make_trigger_mode(MID, GAMMA, other)
        with pytest.raises(GridMismatch):
            overlap(a, b)

    def test_invalid_gamma_closed_form(self):
        with pytest.raises(InvalidGamma):
            overlap_closed_form(10e-9, -1.0)


class TestSymmetricAntisymmetric:
    def test_orthonormal_pair(self, pair40):
        g1, g2 = pair40
        f1, f2 = make_symmetric_antisymmetric(g1, g2)
        assert f1.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert f2.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert abs(overlap(f1, f2)) < 1e-12

    def test_component_weights(self, pair40):
        # <f1, g1> = sqrt((1+I)/2) and <f2, g1> = sqrt((1-I)/2)
        g1, g2 = pair40
        ov = overlap(g1, g2)
        f1, f2 = make_symmetric_antisymmetric(g1, g2)
        assert overlap(f1, g1) == pytest.approx(math.sqrt((1 + ov) / 2), abs=1e-12)
        assert overlap(f2, g1) == pytest.approx(math.sqrt((1 - ov) / 2), abs=1e-12)
        assert overlap(f2, g2) == pytest.approx(-math.sqrt((1 - ov) / 2), abs=1e-12)

    def test_degenerate_at_zero_delay(self, grid):
        g = make_trigger_mode(MID, GAMMA, grid)
        with pytest.raises(DegenerateModes):
            make_symmetric_antisymmetric(g, g)

    def test_rejects_unnormalized(self, grid):
        g = make_trigger_mode(MID, GAMMA, grid)
        raw = ModeFunction(grid=grid, samples=2.0 * g.samples)
        with pytest.raises(GridMismatch):
            make_symmetric_antisymmetric(g, raw)


class TestExtendOrthonormalBasis:
    def test_first_mode_kept_exactly(self, grid, pair40):
        g1, g2 = pair40
        basis = extend_orthonormal_basis([g1, g2], grid, 4)
        assert len(basis) == 4
        np.testing.assert_array_equal(basis[0].samples, g1.samples)

    def test_gram_identity(self, grid, pair40):
        g1, g2 = pair40
        basis = extend_orthonormal_basis([g1, g2], grid, 4)
        gram = np.array([[overlap(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)

    def test_second_mode_projection(self, grid, pair40):
        # h2 = (g2 - I*g1)/sqrt(1 - I**2), so <h2, g2> = sqrt(1 - I**2)
        g1, g2 = pair40
        ov = overlap(g1, g2)
        basis = extend_orthonormal_basis([g1, g2], grid, 2)
        assert abs(overlap(basis[1], g1)) < 1e-9
        assert overlap(basis[1], g2) == pytest.approx(math.sqrt(1 - ov * ov), abs=1e-9)

    def test_duplicate_seeds_rejected(self, grid):
        g = make_trigger_mode(MID, GAMMA, grid)
        with pytest.raises(RankDeficient):
            extend_orthonormal_basis([g, g], grid, 3)

    def test_total_below_seed_count(self, grid, pair40):
        g1, g2 = pair40
        with pytest.raises(RankDeficient):
            extend_orthonormal_basis([g1, g2], grid, 1)

    def test_seed_grid_mismatch(self, grid):
        other = default_grid(dt=0.2e-9)
        g = make_trigger_mode(MID, GAMMA, other)
        with pytest.raises(GridMismatch):
            extend_orthonormal_basis([g], grid, 2)


class TestHeraldPair:
    def test_delay_signed(self):
        assert HeraldPair(t1=1e-9, t2=4e-9).delay == pytest.approx(3e-9)
        assert HeraldPair(t1=4e-9, t2=1e-9).delay == pytest.approx(-3e-9)


class TestWriteCsv:
    """``experiments.write_csv``, which writes every CSV artifact, writes the
    bytes of ``np.savetxt`` at the package's one format, across its 4,096-row
    blocks and at the extremes of %.12g."""

    @pytest.mark.parametrize("n_rows", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_bytes_of_savetxt(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        table = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, 3))
        extremes = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 0.1, 123456789012345.0]
        flat = table.ravel()
        flat[: len(extremes)] = extremes[: flat.size]
        expected, written = tmp_path / "savetxt.csv", tmp_path / "write_csv.csv"
        np.savetxt(expected, table, fmt="%.12g", delimiter=",", header="a,b,c", comments="")
        write_csv(written, table, "a,b,c")
        assert written.read_bytes() == expected.read_bytes()

    def test_list_of_rows(self, tmp_path):
        rows = [[0.0, 1.5], [-2.25, 1e-7]]
        expected, written = tmp_path / "savetxt.csv", tmp_path / "write_csv.csv"
        np.savetxt(expected, rows, fmt="%.12g", delimiter=",", header="x,y", comments="")
        write_csv(written, rows, "x,y")
        assert written.read_bytes() == expected.read_bytes()
