"""Closed-form photon statistics: two-photon weights, loss, small-delay law, g2.

Reference constants were computed with mpmath at 50 digits; see
scripts/compute_reference_values.py.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim.analytic import (
    PhotonDistribution,
    apply_loss,
    fidelity_optimal,
    fixed_mode_distribution,
    g2_closed_form,
    two_photon_weight_lossy,
)
from heraldsim.errors import HeraldSimError, OutOfRange, UnsupportedSupport
from heraldsim.fock import photon_distribution
from heraldsim.homodyne import sample_quadratures
from heraldsim.modes import overlap_closed_form
from heraldsim.tomo import MLConfig

from conftest import ETA, GAMMA

OVERLAP_10NS = 0.50417921002
F_PLUS_10NS = 0.901993738097
# adapted-mode two-photon weight after loss, eta = 0.76
LOSSY_WEIGHT_40NS = 0.294466909488
# fixed-mode lossy distribution (P0, P1, P2) at 40 ns
LOSSY_FIXED_40NS = (0.239964881592, 0.759923910115, 0.000111208292825)
# correction-term ratios (exact/leading-order) at pi*gamma*dt = 0.05
QUARTIC_RATIO_005 = 0.93676918032
QUADRATIC_RATIO_005 = 0.967868192231
# largest x where the quartic correction ratio still exceeds 0.95
QUARTIC_RATIO_BAND_EDGE = 0.0390921098055


class TestFidelityOptimal:
    def test_frozen_value(self):
        f_plus, f_minus = fidelity_optimal(OVERLAP_10NS)
        assert f_plus == pytest.approx(F_PLUS_10NS, abs=1e-9)
        assert f_minus == pytest.approx(1.0 - F_PLUS_10NS, abs=1e-9)

    def test_endpoints(self):
        assert fidelity_optimal(0.0) == (0.5, 0.5)
        assert fidelity_optimal(1.0)[0] == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(ov=st.floats(min_value=0.0, max_value=1.0))
    def test_sum_and_range(self, ov):
        f_plus, f_minus = fidelity_optimal(ov)
        assert f_plus + f_minus == 1.0
        assert 0.5 <= f_plus <= 1.0

    def test_monotone_in_overlap(self):
        ovs = np.linspace(0.0, 1.0, 200)
        vals = np.array([fidelity_optimal(o)[0] for o in ovs])
        assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("ov", [-0.1, 1.1, math.nan])
    def test_domain(self, ov):
        with pytest.raises(OutOfRange):
            fidelity_optimal(ov)


class TestFixedModeDistribution:
    def test_frozen_value(self):
        d = fixed_mode_distribution(0.91)
        assert d.p(2) == pytest.approx(0.905967944861, abs=1e-10)
        assert d.p(0) == 0.0

    def test_unit_overlap_pure_two(self):
        d = fixed_mode_distribution(1.0)
        assert d.p(2) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(ov=st.floats(min_value=0.0, max_value=1.0))
    def test_normalization_and_vacuum(self, ov):
        d = fixed_mode_distribution(ov)
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-15)
        assert d.p(0) == 0.0


class TestApplyLoss:
    def test_two_photon_through_loss(self):
        lossy = apply_loss(PhotonDistribution(np.array([0.0, 0.0, 1.0])), ETA)
        np.testing.assert_allclose(lossy.probs, [0.0576, 0.3648, 0.5776], atol=1e-15)

    def test_fixed_mode_lossy_frozen(self):
        ov = overlap_closed_form(40e-9, GAMMA)
        lossy = apply_loss(fixed_mode_distribution(ov), ETA)
        np.testing.assert_allclose(lossy.probs, LOSSY_FIXED_40NS, atol=1e-10)

    def test_identity_at_full_transmission(self):
        d = PhotonDistribution(np.array([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(apply_loss(d, 1.0).probs, d.probs, atol=1e-15)

    def test_total_loss_gives_vacuum(self):
        d = PhotonDistribution(np.array([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(apply_loss(d, 0.0).probs, [1.0, 0.0, 0.0], atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        eta=st.floats(min_value=0.0, max_value=1.0),
        p2=st.floats(min_value=0.0, max_value=1.0),
        split=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_trace_preserved(self, eta, p2, split):
        p1 = (1.0 - p2) * split
        d = PhotonDistribution(np.array([1.0 - p1 - p2, p1, p2]))
        out = apply_loss(d, eta)
        assert float(out.probs.sum()) == pytest.approx(1.0, abs=1e-12)
        # mean photon number scales exactly by eta
        assert out.mean() == pytest.approx(eta * d.mean(), abs=1e-12)

    def test_rejects_higher_support(self):
        d = PhotonDistribution(np.array([0.4, 0.3, 0.2, 0.1]))
        with pytest.raises(UnsupportedSupport):
            apply_loss(d, 0.9)

    def test_rejects_bad_transmission(self):
        d = PhotonDistribution(np.array([1.0]))
        with pytest.raises(OutOfRange):
            apply_loss(d, 1.2)


class TestSmallDelayExpansions:
    @staticmethod
    def _correction_ratios(x: float) -> tuple[float, float]:
        """(exact correction)/(leading-order correction) for both modes."""
        dt = x / (math.pi * GAMMA)
        ov = overlap_closed_form(dt, GAMMA)
        quartic = (1.0 - fidelity_optimal(ov)[0]) / (x / 2.0) ** 4
        quadratic = (1.0 - fixed_mode_distribution(ov).p(2)) / (x / math.sqrt(2.0)) ** 2
        return quartic, quadratic

    def test_correction_ratios_frozen(self):
        quartic, quadratic = self._correction_ratios(0.05)
        assert quartic == pytest.approx(QUARTIC_RATIO_005, abs=1e-9)
        assert quadratic == pytest.approx(QUADRATIC_RATIO_005, abs=1e-9)

    def test_ratios_approach_one(self):
        # corrections converge to their leading orders as the delay shrinks
        q1, q2 = self._correction_ratios(1e-3)
        assert q1 == pytest.approx(1.0, abs=2e-3)
        assert q2 == pytest.approx(1.0, abs=2e-3)

    def test_quartic_ratio_band_edge(self):
        # the quartic ratio leaves [0.95, 1.05] beyond x ~ 0.0391
        inside, _ = self._correction_ratios(QUARTIC_RATIO_BAND_EDGE * 0.999)
        outside, _ = self._correction_ratios(QUARTIC_RATIO_BAND_EDGE * 1.001)
        assert inside > 0.95
        assert outside < 0.95

    def test_order_separation(self):
        # adapted-mode deficit is quartic, fixed-mode quadratic: their ratio
        # shrinks like x**2 as the delay halves
        for x in (0.05, 0.025):
            dt = x / (math.pi * GAMMA)
            ov = overlap_closed_form(dt, GAMMA)
            adapted = 1.0 - fidelity_optimal(ov)[0]
            fixed = 1.0 - fixed_mode_distribution(ov).p(2)
            assert adapted / fixed == pytest.approx(x * x / 8.0, rel=0.1)


class TestG2ClosedForm:
    def test_bunching_limits(self):
        assert g2_closed_form(0.0, GAMMA) == 2.0
        assert g2_closed_form(1e-6, GAMMA) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        assert g2_closed_form(10e-9, GAMMA) == pytest.approx(1.25419667582, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(delta_ns=st.floats(min_value=0.0, max_value=200.0))
    def test_siegert_identity(self, delta_ns):
        dt = delta_ns * 1e-9
        ov = overlap_closed_form(dt, GAMMA)
        assert g2_closed_form(dt, GAMMA) - 1.0 == pytest.approx(ov * ov, abs=1e-12)

    def test_array_input(self):
        d = np.array([0.0, 10e-9, 40e-9])
        vals = g2_closed_form(d, GAMMA)
        assert vals.shape == d.shape
        assert vals[0] == 2.0


class TestTwoPhotonWeightLossy:
    def test_zero_delay_endpoint(self):
        assert two_photon_weight_lossy(0.0, GAMMA, ETA) == pytest.approx(
            0.5776, abs=1e-15
        )

    def test_40ns_frozen(self):
        assert two_photon_weight_lossy(40e-9, GAMMA, ETA) == pytest.approx(
            LOSSY_WEIGHT_40NS, abs=1e-10
        )

    def test_far_delay_plateau(self):
        assert two_photon_weight_lossy(1e-6, GAMMA, ETA) == pytest.approx(
            0.5 * ETA * ETA, abs=1e-12
        )

    def test_monotone_decreasing(self):
        d = np.linspace(0.0, 60e-9, 100)
        vals = np.array([two_photon_weight_lossy(x, GAMMA, ETA) for x in d])
        assert np.all(np.diff(vals) < 0.0)

    def test_bad_transmission(self):
        with pytest.raises(OutOfRange):
            two_photon_weight_lossy(0.0, GAMMA, -0.1)


class TestParamTypes:
    def test_distribution_validation(self):
        with pytest.raises(OutOfRange):
            PhotonDistribution(np.array([0.5, 0.6]))
        with pytest.raises(OutOfRange):
            PhotonDistribution(np.array([-0.1, 1.1]))
        with pytest.raises(OutOfRange):
            PhotonDistribution(np.array([]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PhotonDistribution(np.array([np.nan])),
            lambda: PhotonDistribution(np.array([0.5, np.nan, 0.5])),
            lambda: photon_distribution(np.array([[np.nan + 0j]])),
            lambda: sample_quadratures(np.array([[np.nan + 0j]]), 5, 1),
            lambda: MLConfig(tol=math.inf),
        ],
        ids=["lone_nan", "nan_inside", "nan_density", "nan_quadrature_state", "infinite_tol"],
    )
    def test_validators_reject_non_finite(self, build):
        # each check is written so that NaN fails it
        with pytest.raises(HeraldSimError):
            build()

    def test_distribution_accessors(self):
        d = PhotonDistribution(np.array([0.2, 0.3, 0.5]))
        assert d.cutoff == 2
        assert d.p(1) == 0.3
        assert d.mean() == pytest.approx(1.3)
        with pytest.raises(OutOfRange):
            d.p(3)
