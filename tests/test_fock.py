"""Truncated Fock engine: heralded state, loss channel, the basis-change
matrix behind the reductions, mode reductions, and their agreement with
the closed forms.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heraldsim
from heraldsim.analytic import apply_loss, fidelity_optimal, fixed_mode_distribution
from heraldsim.errors import (
    CutoffExceeded,
    GridMismatch,
    InvalidDensity,
    ModesNotOrthogonal,
    OutOfRange,
    SpanDeficit,
)
from heraldsim.experiments import _rho_json
from heraldsim.fock import (
    ModeRegister,
    MultimodeState,
    apply_loss_channel,
    basis_tuples,
    build_heralded_state,
    check_density,
    loss_channel_single,
    photon_distribution,
    reduce_to_mode,
    reduce_to_mode_pair,
    _transform_matrix,
)
from heraldsim.modes import (
    ModeFunction,
    extend_orthonormal_basis,
    make_symmetric_antisymmetric,
    make_trigger_mode,
    overlap,
)

from conftest import ETA, GAMMA, MID, herald_times

# (1 + I)/(1 - I) at 40 ns: amplitude ratio of the two-photon components
AMPLITUDE_RATIO_40NS = 1.01981861368


def heralded_scene(grid, delta_t):
    """Trigger modes, adapted pair, and the heralded state on [g1, h2]."""
    t1, t2 = herald_times(delta_t)
    g1 = make_trigger_mode(t1, GAMMA, grid)
    g2 = make_trigger_mode(t2, GAMMA, grid)
    f1, f2 = make_symmetric_antisymmetric(g1, g2)
    register = ModeRegister(modes=tuple(extend_orthonormal_basis([g1, g2], grid, 2)))
    state = build_heralded_state(register, g1, g2)
    return g1, g2, f1, f2, state


class TestBasisTuples:
    def test_two_modes_cutoff_two(self):
        assert basis_tuples(2, 2) == [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (2, 0),
        ]

    def test_counts(self):
        # total occupation <= n_max over m modes: C(m + n_max, m) states
        assert len(basis_tuples(3, 2)) == math.comb(5, 3)
        assert len(basis_tuples(1, 4)) == 5


class TestModeRegister:
    def test_rejects_non_orthonormal(self, grid, pair40):
        g1, g2 = pair40  # overlap ~ 0.0098 > 1e-8
        with pytest.raises(ModesNotOrthogonal):
            ModeRegister(modes=(g1, g2))

    def test_rejects_empty(self):
        with pytest.raises(OutOfRange):
            ModeRegister(modes=())

    def test_rejects_mixed_grids(self, grid):
        from heraldsim.modes import default_grid

        a = make_trigger_mode(MID, GAMMA, grid)
        b = make_trigger_mode(MID, GAMMA, default_grid(dt=0.2e-9))
        with pytest.raises(GridMismatch):
            ModeRegister(modes=(a, b))

    def test_accepts_adapted_pair(self, pair40):
        f1, f2 = make_symmetric_antisymmetric(*pair40)
        assert len(ModeRegister(modes=(f1, f2))) == 2


class TestDecompositionCoeffs:
    """The triggers' coefficients over the register, as ``build_heralded_state``
    computes them."""

    def test_orthogonalized_register(self, grid, pair40):
        # on (g1, h2): g1 = (1, 0) and g2 = (I, sqrt(1 - I**2)), so the state
        # is sqrt(2)*I |2,0> + sqrt(1 - I**2) |1,1>, over sqrt(1 + I**2)
        g1, g2 = pair40
        ov = overlap(g1, g2)
        register = ModeRegister(modes=tuple(extend_orthonormal_basis([g1, g2], grid, 2)))
        state = build_heralded_state(register, g1, g2)
        diag = np.real(np.diag(state.rho))
        norm = 1.0 + ov * ov
        assert diag[state.index_of((2, 0))] == pytest.approx(2.0 * ov * ov / norm, abs=1e-9)
        assert diag[state.index_of((1, 1))] == pytest.approx((1.0 - ov * ov) / norm, abs=1e-9)
        assert diag[state.index_of((0, 2))] == pytest.approx(0.0, abs=1e-9)

    def test_residual_outside_span(self, grid, pair40):
        g1, g2 = pair40
        f1, _ = make_symmetric_antisymmetric(g1, g2)
        register = ModeRegister(modes=(f1,))
        ov = overlap(g1, g2)
        # each trigger leaves (1 - I)/2 of its mass outside the f1 span
        residual = f"{(1.0 - ov) / 2.0:.2e}"
        with pytest.raises(SpanDeficit, match=re.escape(f"span: {residual}, {residual} ")):
            build_heralded_state(register, g1, g2)


class TestBuildHeraldedState:
    def test_amplitudes_on_adapted_pair(self, pair40):
        g1, g2 = pair40
        ov = overlap(g1, g2)
        f1, f2 = make_symmetric_antisymmetric(g1, g2)
        register = ModeRegister(modes=(f1, f2))
        state = build_heralded_state(register, g1, g2)
        norm = 2.0 * (1.0 + ov * ov)
        i20 = state.index_of((2, 0))
        i02 = state.index_of((0, 2))
        i11 = state.index_of((1, 1))
        assert state.rho[i20, i20].real == pytest.approx((1 + ov) ** 2 / norm, abs=1e-10)
        assert state.rho[i02, i02].real == pytest.approx((1 - ov) ** 2 / norm, abs=1e-10)
        assert abs(state.rho[i11, i11]) < 1e-12
        # opposite signs of the two components
        assert state.rho[i20, i02].real == pytest.approx(
            -(1 - ov * ov) / norm, abs=1e-10
        )

    def test_amplitude_ratio_frozen(self, pair40):
        g1, g2 = pair40
        f1, f2 = make_symmetric_antisymmetric(g1, g2)
        state = build_heralded_state(ModeRegister(modes=(f1, f2)), g1, g2)
        i20 = state.index_of((2, 0))
        i02 = state.index_of((0, 2))
        ratio = math.sqrt(state.rho[i20, i20].real / state.rho[i02, i02].real)
        # discrete overlap differs from the continuum value by < 1e-4
        assert ratio == pytest.approx(AMPLITUDE_RATIO_40NS, abs=1e-3)

    def test_zero_delay_pure_two_photon(self, grid):
        g = make_trigger_mode(MID, GAMMA, grid)
        register = ModeRegister(modes=(g,))
        state = build_heralded_state(register, g, g)
        i2 = state.index_of((2,))
        assert state.rho[i2, i2].real == pytest.approx(1.0, abs=1e-12)

    def test_span_deficit(self, pair40):
        g1, g2 = pair40
        f1, _ = make_symmetric_antisymmetric(g1, g2)
        with pytest.raises(SpanDeficit):
            build_heralded_state(ModeRegister(modes=(f1,)), g1, g2)

    def test_cutoff_guard(self, pair40):
        g1, g2 = pair40
        f1, f2 = make_symmetric_antisymmetric(g1, g2)
        with pytest.raises(CutoffExceeded):
            build_heralded_state(ModeRegister(modes=(f1, f2)), g1, g2, n_max=1)


class TestLossChannel:
    def test_identity_at_unit_transmission(self, grid):
        *_, state = heralded_scene(grid, 40e-9)
        out = apply_loss_channel(state, 1.0)
        np.testing.assert_allclose(out.rho, state.rho, atol=1e-14)

    def test_two_photon_through_loss(self, grid):
        g = make_trigger_mode(MID, GAMMA, grid)
        state = build_heralded_state(ModeRegister(modes=(g,)), g, g)
        lossy = apply_loss_channel(state, ETA)
        np.testing.assert_allclose(
            np.real(np.diag(lossy.rho)), [0.0576, 0.3648, 0.5776], atol=1e-12
        )

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.76, 1.0])
    def test_trace_preserved(self, grid, eta):
        *_, state = heralded_scene(grid, 40e-9)
        lossy = apply_loss_channel(state, eta)
        assert np.trace(lossy.rho).real == pytest.approx(1.0, abs=1e-12)

    def test_purity_non_increasing(self, grid):
        *_, state = heralded_scene(grid, 40e-9)
        lossy = apply_loss_channel(state, 0.5)
        purity = lambda r: float(np.real(np.trace(r @ r)))
        assert purity(lossy.rho) <= purity(state.rho) + 1e-12

    def test_bad_transmission(self, grid):
        *_, state = heralded_scene(grid, 40e-9)
        with pytest.raises(OutOfRange):
            apply_loss_channel(state, 1.5)

    def test_single_mode_channel_trace(self):
        rho = np.diag([0.1, 0.2, 0.7]).astype(complex)
        out = loss_channel_single(rho, 0.37)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(OutOfRange):
            loss_channel_single(rho, -0.1)

    def test_single_mode_channel_is_the_register_channel(self, grid):
        # one loss sum serves both: equal bit for bit on a one-mode register
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        register = ModeRegister(modes=(make_trigger_mode(MID, GAMMA, grid),))
        state = MultimodeState(register=register, n_max=3, rho=rho)
        for eta in (0.0, 0.37, 0.76, 1.0):
            np.testing.assert_array_equal(
                loss_channel_single(rho, eta), apply_loss_channel(state, eta).rho
            )


def test_import_leaves_scipy_special_unloaded():
    # the loss Kraus weights are exact integer binomials; scipy.special
    # would add about 0.2 s and 17 MiB to every process that imports heraldsim
    src = str(Path(heraldsim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, heraldsim; sys.exit('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0


def rotated(state, unitary):
    """The state's density matrix in the modes given by the rows of ``unitary``."""
    transform = _transform_matrix(state.basis, state._index, unitary)
    return transform @ state.rho @ transform.T


class TestChangeModeBasis:
    """``_transform_matrix``, the occupation-basis matrix of a real
    orthogonal change of mode basis, by which the reductions rotate."""

    def test_identity_rotation(self, grid):
        *_, state = heralded_scene(grid, 40e-9)
        transform = _transform_matrix(state.basis, state._index, np.eye(2))
        np.testing.assert_allclose(transform, np.eye(len(state.basis)), atol=1e-12)

    def test_rotation_to_adapted_pair(self, grid):
        g1, g2, f1, f2, state = heralded_scene(grid, 40e-9)
        ov = overlap(g1, g2)
        c = math.sqrt((1 + ov) / 2)
        s = math.sqrt((1 - ov) / 2)
        # rows express (f1, f2) in the register basis (g1, h2)
        diag = np.real(np.diag(rotated(state, np.array([[c, s], [s, -c]]))))
        norm = 2.0 * (1.0 + ov * ov)
        assert diag[state.index_of((2, 0))] == pytest.approx((1 + ov) ** 2 / norm, abs=1e-10)
        assert diag[state.index_of((0, 2))] == pytest.approx((1 - ov) ** 2 / norm, abs=1e-10)
        assert abs(diag[state.index_of((1, 1))]) < 1e-10

    def test_involution_returns_state(self, grid):
        *_, state = heralded_scene(grid, 40e-9)
        transform = _transform_matrix(state.basis, state._index, np.array([[0.6, 0.8], [0.8, -0.6]]))
        np.testing.assert_allclose(transform @ transform, np.eye(len(state.basis)), atol=1e-12)

    def test_total_photon_number_invariant(self, grid):
        *_, state = heralded_scene(grid, 40e-9)
        u = np.array([[0.6, 0.8], [0.8, -0.6]])
        total = np.array([sum(t) for t in state.basis], dtype=float)
        # no entry links occupations of different total photon number
        transform = _transform_matrix(state.basis, state._index, u)
        assert np.all(transform[total[:, None] != total[None, :]] == 0.0)
        for rho in (state.rho, rotated(state, u)):
            assert float(total @ np.real(np.diag(rho))) == pytest.approx(2.0, abs=1e-10)


class TestReduceToMode:
    def test_zero_delay_adapted_mode_is_pure(self, grid):
        g = make_trigger_mode(MID, GAMMA, grid)
        state = build_heralded_state(ModeRegister(modes=(g,)), g, g)
        rho = reduce_to_mode(state, g)
        np.testing.assert_allclose(np.real(np.diag(rho)), [0.0, 0.0, 1.0], atol=1e-12)

    def test_adapted_mode_weights(self, grid):
        g1, g2, f1, f2, state = heralded_scene(grid, 40e-9)
        ov = overlap(g1, g2)
        f_plus, f_minus = fidelity_optimal(ov)
        diag = np.real(np.diag(reduce_to_mode(state, f1)))
        np.testing.assert_allclose(diag, [f_minus, 0.0, f_plus], atol=1e-10)

    def test_fixed_mode_weights(self, grid):
        g1, g2, *_, state = heralded_scene(grid, 40e-9)
        ov = overlap(g1, g2)
        diag = np.real(np.diag(reduce_to_mode(state, g1)))
        np.testing.assert_allclose(diag, fixed_mode_distribution(ov).probs, atol=1e-10)

    def test_orthogonal_mode_sees_vacuum(self, grid):
        g1, g2, *_, state = heralded_scene(grid, 40e-9)
        far = extend_orthonormal_basis([g1, g2], grid, 3)[2]
        diag = np.real(np.diag(reduce_to_mode(state, far)))
        np.testing.assert_allclose(diag, [1.0, 0.0, 0.0], atol=1e-10)

    def test_rejects_unnormalized(self, grid):
        g1, g2, *_, state = heralded_scene(grid, 40e-9)
        from heraldsim.modes import ModeFunction

        half = ModeFunction(grid=grid, samples=0.5 * g1.samples)
        with pytest.raises(GridMismatch):
            reduce_to_mode(state, half)


class TestOracleEquivalence:
    def test_reduced_distributions_match_closed_forms(self, grid):
        # dual-route check at several delays, lossless and lossy
        rng = np.random.default_rng(7)
        for delta_ns in rng.uniform(0.5, 60.0, size=5):
            g1, g2, f1, f2, state = heralded_scene(grid, delta_ns * 1e-9)
            ov = overlap(g1, g2)
            f_plus, f_minus = fidelity_optimal(ov)
            np.testing.assert_allclose(
                np.real(np.diag(reduce_to_mode(state, f1))),
                [f_minus, 0.0, f_plus],
                atol=1e-10,
            )
            np.testing.assert_allclose(
                np.real(np.diag(reduce_to_mode(state, g1))),
                fixed_mode_distribution(ov).probs,
                atol=1e-10,
            )
            lossy = apply_loss_channel(state, ETA)
            np.testing.assert_allclose(
                np.real(np.diag(reduce_to_mode(lossy, g1))),
                apply_loss(fixed_mode_distribution(ov), ETA).probs,
                atol=1e-10,
            )

    def test_pair_reduction_marginals(self, grid):
        g1, g2, f1, f2, state = heralded_scene(grid, 40e-9)
        rho_pair = reduce_to_mode_pair(state, f1, f2).reshape(3, 3, 3, 3)
        marg_a = np.einsum("ikjk->ij", rho_pair)
        marg_b = np.einsum("kikj->ij", rho_pair)
        np.testing.assert_allclose(marg_a, reduce_to_mode(state, f1), atol=1e-10)
        np.testing.assert_allclose(marg_b, reduce_to_mode(state, f2), atol=1e-10)

    def test_pair_and_single_reductions_agree_on_a_larger_register(self, grid):
        # a rotated pair in a three-mode register of a lossy n_max = 3 state:
        # the completed rotation leaves a third mode to trace out
        g1, g2, f1, f2, _ = heralded_scene(grid, 40e-9)
        register = ModeRegister(modes=tuple(extend_orthonormal_basis([g1, g2], grid, 3)))
        state = apply_loss_channel(build_heralded_state(register, g1, g2, n_max=3), ETA)
        c, s = math.cos(0.3), math.sin(0.3)
        h = register.modes[2].samples
        xi_a = ModeFunction(grid, c * f1.samples + s * h, normalized=True)
        xi_b = ModeFunction(grid, -s * f1.samples + c * h, normalized=True)
        rho_pair = reduce_to_mode_pair(state, xi_a, xi_b).reshape(4, 4, 4, 4)
        np.testing.assert_allclose(
            np.einsum("ikjk->ij", rho_pair), reduce_to_mode(state, xi_a), atol=1e-12
        )
        np.testing.assert_allclose(
            np.einsum("kikj->ij", rho_pair), reduce_to_mode(state, xi_b), atol=1e-12
        )

    def test_pair_reduction_rejects_overlapping(self, grid):
        g1, g2, f1, f2, state = heralded_scene(grid, 40e-9)
        with pytest.raises(ModesNotOrthogonal):
            reduce_to_mode_pair(state, g1, g2)

    @pytest.mark.parametrize("tilt", [5e-10, 2e-9])
    def test_pair_reduction_honours_its_orthogonality_tolerance(self, grid, tilt):
        # overlaps up to 1e-9 are admitted and reduced; beyond it they are refused
        g1, g2, f1, f2, state = heralded_scene(grid, 40e-9)
        xi_b = ModeFunction(grid, f2.samples + tilt * f1.samples, normalized=True)
        assert overlap(f1, xi_b) == pytest.approx(tilt, rel=1e-3)
        if tilt > 1e-9:
            with pytest.raises(ModesNotOrthogonal):
                reduce_to_mode_pair(state, f1, xi_b)
            return
        np.testing.assert_allclose(
            reduce_to_mode_pair(state, f1, xi_b), reduce_to_mode_pair(state, f1, f2), atol=1e-8
        )


class TestStateValidation:
    def test_multimode_state_shape_guard(self, pair40):
        f1, f2 = make_symmetric_antisymmetric(*pair40)
        register = ModeRegister(modes=(f1, f2))
        with pytest.raises(InvalidDensity):
            MultimodeState(register=register, n_max=2, rho=np.eye(4) / 4.0)

    def test_multimode_state_cutoff_guard(self, pair40):
        f1, f2 = make_symmetric_antisymmetric(*pair40)
        register = ModeRegister(modes=(f1, f2))
        with pytest.raises(CutoffExceeded):
            MultimodeState(register=register, n_max=1, rho=np.eye(3) / 3.0)

    def test_check_density_guards(self):
        with pytest.raises(InvalidDensity):
            check_density(np.diag([0.6, 0.6]).astype(complex))
        bad_h = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidDensity):
            check_density(bad_h)
        neg = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        with pytest.raises(InvalidDensity):
            check_density(neg)

    def test_photon_distribution_from_density(self):
        d = photon_distribution(np.diag([0.25, 0.25, 0.5]).astype(complex))
        np.testing.assert_allclose(d.probs, [0.25, 0.25, 0.5], atol=1e-15)


class TestDensityMatrixJson:
    """``experiments._rho_json``, the panels' ``exact_rho``, reads back bit
    for bit after a JSON round trip."""

    @staticmethod
    def round_trip(rho):
        payload = json.loads(json.dumps(_rho_json(rho)))
        d = payload["dimension"]
        return (np.array(payload["real"]) + 1j * np.array(payload["imag"])).reshape(d, d)

    def test_round_trip_exact(self, grid):
        *_, state = heralded_scene(grid, 40e-9)
        rho = reduce_to_mode(apply_loss_channel(state, ETA), state.register.modes[0])
        np.testing.assert_array_equal(self.round_trip(rho), rho)

    def test_complex_entries_preserved(self):
        rho = np.array([[0.5, 0.1j], [-0.1j, 0.5]], dtype=complex)
        np.testing.assert_array_equal(self.round_trip(rho), rho)
