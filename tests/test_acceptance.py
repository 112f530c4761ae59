"""Acceptance gate: eight end-of-pipeline checks, one per criterion.

Each test prints a single machine-greppable line

    [acceptance N] PASS|FAIL: <numbers>

before asserting, so the verdicts survive in captured logs either way.
Budgets are wall-clock seconds measured around the computation only.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np
import pytest

from heraldsim.analytic import (
    PhotonDistribution,
    apply_loss,
    fidelity_optimal,
    fixed_mode_distribution,
    two_photon_weight_lossy,
)
from heraldsim.experiments import (
    ExperimentConfig,
    run_fixed_mode_sweep,
    run_fock_panels,
    run_g2,
)
from heraldsim.fock import (
    ModeRegister,
    apply_loss_channel,
    build_heralded_state,
    reduce_to_mode,
)
from heraldsim.homodyne import (
    hermite_function,
    project_trace,
    sample_quadratures,
    synthesize_trace_batch,
)
from heraldsim.modes import (
    HeraldPair,
    extend_orthonormal_basis,
    make_symmetric_antisymmetric,
    make_trigger_mode,
    overlap,
    overlap_closed_form,
)
from heraldsim.tomo import MLConfig, ml_diagonal

from conftest import ETA, GAMMA, herald_times

DEFAULT = ExperimentConfig()

# pytest captures file descriptor 1 itself, so a plain print surfaces only
# for failing tests; the terminal writer keeps the pre-capture stream, but
# pytest still shows a passing test's verdict line only under -s or -rA
# (README "Testing")
_VERDICT = {"write": None}


@pytest.fixture(autouse=True)
def _verdict_writer(request):
    _VERDICT["write"] = request.config.get_terminal_writer().line
    yield
    _VERDICT["write"] = None


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance {criterion}] {verdict}: {detail}"
    write = _VERDICT["write"]
    if write is None:
        print(line, file=sys.__stdout__, flush=True)
    else:
        write("")
        write(line)


def _scene(grid, delta_t, eta=None):
    """Trigger pair, adapted modes, and heralded state at one delay."""
    t1, t2 = herald_times(delta_t)
    g1 = make_trigger_mode(t1, GAMMA, grid)
    g2 = make_trigger_mode(t2, GAMMA, grid)
    f1, f2 = make_symmetric_antisymmetric(g1, g2)
    register = ModeRegister(modes=tuple(extend_orthonormal_basis([g1, g2], grid, 2)))
    state = build_heralded_state(register, g1, g2)
    if eta is not None:
        state = apply_loss_channel(state, eta)
    return g1, g2, f1, f2, state


def test_acceptance_1_lossy_adapted_weight_endpoints():
    # The two ends of the adapted-mode weight curve: eta**2 at zero
    # separation and eta**2/2 once the trigger modes have decoupled.  The
    # decoupled end is probed at 100 ns (overlap 1.04e-6, weight
    # eta**2/2 + 6.0e-7): the weight enters 0.2888 +- 5e-4 only from
    # 56.414 ns on (pi*gamma*dt = 9.3932), and at 40 ns the overlap 0.0098
    # still holds it 0.00567 above the limit.  40 ns stays pinned to its
    # exact value, which a wrong overlap rate would move.
    at_zero = two_photon_weight_lossy(0.0, GAMMA, ETA)
    at_40ns = two_photon_weight_lossy(40e-9, GAMMA, ETA)
    at_100ns = two_photon_weight_lossy(100e-9, GAMMA, ETA)
    ok = (
        abs(at_zero - 0.5776) <= 1e-12
        and abs(at_100ns - 0.2888) <= 5e-4
        and abs(at_40ns - 0.294466909488) <= 1e-10
    )
    _report(
        1,
        ok,
        f"weight(0)={at_zero:.12f} (target 0.5776), "
        f"weight(100ns)={at_100ns:.12f} (target 0.2888+-0.0005, "
        f"deviation {abs(at_100ns - 0.2888):.6f}), "
        f"weight(40ns)={at_40ns:.12f} (exact 0.294466909488+-1e-10)",
    )
    assert abs(at_zero - 0.5776) <= 1e-12
    assert abs(at_100ns - 0.2888) <= 5e-4
    assert abs(at_40ns - 0.294466909488) <= 1e-10


def test_acceptance_2_engine_matches_closed_forms(grid):
    rng = np.random.default_rng(20260815)
    delays = rng.uniform(0.0, 40.0, 20) * 1e-9
    assert delays.min() > 1e-12
    t0 = time.perf_counter()
    worst = 0.0
    for delta_t in delays:
        g1, g2, f1, f2, state = _scene(grid, delta_t)
        lossy = apply_loss_channel(state, ETA)
        ov = overlap(g1, g2)
        f_plus, f_minus = fidelity_optimal(ov)
        adapted = np.array([f_minus, 0.0, f_plus])
        fixed = np.array([fixed_mode_distribution(ov).p(n) for n in range(3)])
        for ref, mode in ((adapted, f1), (fixed, g1)):
            got = np.diag(reduce_to_mode(state, mode)).real
            worst = max(worst, float(np.max(np.abs(got - ref))))
            lossy_ref = apply_loss(PhotonDistribution(ref), ETA).probs
            got = np.diag(reduce_to_mode(lossy, mode)).real
            worst = max(worst, float(np.max(np.abs(got - lossy_ref))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(2, ok, f"max |engine - closed form| = {worst:.3e} over 20 delays, {elapsed:.2f} s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_acceptance_3_pair_correlation_statistics(tmp_path):
    t0 = time.perf_counter()
    summary = run_g2(DEFAULT, tmp_path)
    elapsed = time.perf_counter() - t0
    dev_zero = abs(summary["g2_zero"] - 2.0)
    ok = dev_zero <= 0.05 and summary["max_abs_deviation"] < 0.05 and elapsed < 120.0
    _report(
        3,
        ok,
        f"g2(0)={summary['g2_zero']:.4f} (target 2.00+-0.05), "
        f"max deviation {summary['max_abs_deviation']:.4f} (<0.05), "
        f"{summary['n_clicks']} clicks in {elapsed:.1f} s (<120 s)",
    )
    assert dev_zero <= 0.05
    assert summary["max_abs_deviation"] < 0.05
    assert elapsed < 120.0


def test_acceptance_4_zero_delay_trace_tomography():
    cfg = dataclasses.replace(DEFAULT, grid_window_ns=140.0)
    grid = cfg.grid()
    n_total = 1_000_000
    chunk = 2048
    t0 = time.perf_counter()
    g1 = make_trigger_mode(70e-9, GAMMA, grid)
    spectator = extend_orthonormal_basis([g1], grid, 2)[1]
    state = apply_loss_channel(
        build_heralded_state(ModeRegister(modes=(g1,)), g1, g1), ETA
    )
    rho = reduce_to_mode(state, g1)
    vac = np.zeros_like(rho)
    vac[0, 0] = 1.0
    rho2 = np.kron(rho, vac)
    herald = HeraldPair(t1=70e-9, t2=70e-9)
    xs = np.empty(n_total)
    thetas = np.empty(n_total)
    done = 0
    seed = 0
    while done < n_total:
        n = min(chunk, n_total - done)
        traces, _, th = synthesize_trace_batch(rho2, g1, spectator, herald, n, seed)
        xs[done : done + n] = project_trace(traces, g1)
        thetas[done : done + n] = th
        done += n
        seed += 1
    result = ml_diagonal(np.column_stack([xs, thetas]), MLConfig())
    elapsed = time.perf_counter() - t0
    p2 = result.probs[2]
    ok = abs(p2 - 0.578) <= 0.015 and elapsed < 300.0
    _report(
        4,
        ok,
        f"reconstructed P2={p2:.4f} (target 0.578+-0.015) from {n_total} "
        f"projected traces, {elapsed:.1f} s (<300 s)",
    )
    assert abs(p2 - 0.578) <= 0.015
    assert elapsed < 300.0


def test_acceptance_5_mode_panels_at_40ns(tmp_path):
    panels = run_fock_panels(DEFAULT, 40.0, tmp_path)
    p1_trigger = panels["g1"]["reconstruction"]["probs"][1]
    p2_adapted = panels["f1"]["reconstruction"]["probs"][2]
    ok = abs(p1_trigger - 0.76) <= 0.02 and abs(p2_adapted - 0.29) <= 0.02
    _report(
        5,
        ok,
        f"trigger-mode P1={p1_trigger:.4f} (target 0.76+-0.02), "
        f"adapted-mode P2={p2_adapted:.4f} (target 0.29+-0.02), "
        f"N={DEFAULT.samples_per_point}",
    )
    assert abs(p1_trigger - 0.76) <= 0.02
    assert abs(p2_adapted - 0.29) <= 0.02


def test_acceptance_6_fixed_mode_sweep_consistency(tmp_path):
    rows = run_fixed_mode_sweep(DEFAULT, tmp_path)
    worst_pull = 0.0
    n_checked = 0
    for row in rows:
        for n in range(3):
            pull = abs(row[f"P{n}_reconstructed"] - row[f"P{n}_analytic"])
            limit = 3.0 * row[f"P{n}_stderr"]
            worst_pull = max(worst_pull, pull / limit if limit > 0 else np.inf)
            n_checked += 1
    delays = np.array([row["delta_t_ns"] for row in rows])
    p2 = np.array([row["P2_analytic"] for row in rows])
    half = 0.5 * p2[0]
    k = int(np.argmax(p2 < half))
    crossing = delays[k - 1] + (delays[k] - delays[k - 1]) * (p2[k - 1] - half) / (
        p2[k - 1] - p2[k]
    )
    half_decay_err = abs(crossing - 8.66168750178)
    ok = worst_pull <= 1.0 and half_decay_err <= 2.0
    _report(
        6,
        ok,
        f"worst |reconstructed-analytic|/(3 stderr) = {worst_pull:.3f} over "
        f"{n_checked} checks; analytic half-decay at {crossing:.3f} ns "
        f"(target 8.662 +- 2.0)",
    )
    assert worst_pull <= 1.0, "a sweep bin disagrees beyond 3 standard errors"
    assert half_decay_err <= 2.0


def _deficit_ratios(x: float) -> tuple[float, float]:
    """Exact deficits over their leading forms (x/2)**4 and (x/sqrt(2))**2,
    adapted and fixed mode, at x = pi*gamma*delta_t."""
    ov = overlap_closed_form(x / (np.pi * GAMMA), GAMMA)
    f_plus, _ = fidelity_optimal(ov)
    quartic_ratio = (1.0 - f_plus) / (x / 2.0) ** 4
    p2_fixed = fixed_mode_distribution(ov).p(2)
    quadratic_ratio = (1.0 - p2_fixed) / (x / np.sqrt(2.0)) ** 2
    return quartic_ratio, quadratic_ratio


def test_acceptance_7_small_delay_scaling_bands():
    # The overlap depends on |delta_t|, so each ratio starts 1 - 4x/3 and
    # 1 - 2x/3: the leading forms are within 5 % only for x <= 0.039092
    # (quartic) and x <= 0.079447 (quadratic).  They are checked at
    # x = 0.02, inside both edges; at x = 0.05 each ratio is checked against
    # its two-term form instead.
    x = 0.02
    quartic_ratio, quadratic_ratio = _deficit_ratios(x)
    x_far = 0.05
    quartic_far, quadratic_far = _deficit_ratios(x_far)
    quartic_two_term = quartic_far / (1.0 - 4.0 * x_far / 3.0)
    quadratic_two_term = quadratic_far / (1.0 - 2.0 * x_far / 3.0)
    ratios = (quartic_ratio, quadratic_ratio, quartic_two_term, quadratic_two_term)
    ok = all(0.95 <= r <= 1.05 for r in ratios)
    _report(
        7,
        ok,
        f"at x={x}: quartic ratio {quartic_ratio:.6f}, quadratic ratio "
        f"{quadratic_ratio:.6f}; at x={x_far} over 1-4x/3 and 1-2x/3: "
        f"{quartic_two_term:.6f}, {quadratic_two_term:.6f} "
        f"(all must lie in [0.95, 1.05])",
    )
    assert 0.95 <= quadratic_ratio <= 1.05
    assert 0.95 <= quartic_ratio <= 1.05
    assert 0.95 <= quadratic_two_term <= 1.05
    assert 0.95 <= quartic_two_term <= 1.05


def test_acceptance_8_property_suite(grid):
    details = []

    # orthonormal analysis bases at several delays
    worst_gram = 0.0
    for delta_t in (5e-9, 17.3e-9, 33e-9):
        t1, t2 = herald_times(delta_t)
        basis = extend_orthonormal_basis(
            [make_trigger_mode(t1, GAMMA, grid), make_trigger_mode(t2, GAMMA, grid)],
            grid,
            2,
        )
        mat = np.array([m.samples for m in basis])
        gram = mat @ mat.T * grid.dt
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(len(basis))))))
    details.append(f"gram deviation {worst_gram:.2e}")

    # loss channel preserves trace for every transmission
    g1, g2, f1, f2, state = _scene(grid, 12e-9)
    worst_trace = 0.0
    for eta in np.linspace(0.05, 0.95, 7):
        lossy = apply_loss_channel(state, float(eta))
        worst_trace = max(worst_trace, abs(np.trace(lossy.rho).real - 1.0))
    details.append(f"trace deviation {worst_trace:.2e}")

    # likelihood climbs monotonically and converges
    rho = reduce_to_mode(apply_loss_channel(state, ETA), f1)
    samples = sample_quadratures(rho, 20_000, rng_seed=808)
    result = ml_diagonal(samples, MLConfig())
    ll_steps = np.diff(result.ll_history)
    details.append(f"min LL step {ll_steps.min():.2e}, converged={result.converged}")

    # sampled quadratures match the model distribution (KS at the 1% level)
    xs = np.sort(samples[:, 0])
    probs = np.diag(rho).real
    x_grid = np.linspace(-8.0, 8.0, 4001)
    pdf = sum(probs[n] * hermite_function(n, x_grid) ** 2 for n in range(3))
    cdf = np.cumsum(pdf) * (x_grid[1] - x_grid[0])
    cdf /= cdf[-1]
    empirical = np.arange(1, xs.size + 1) / xs.size
    model = np.interp(xs, x_grid, cdf)
    ks = float(np.max(np.abs(empirical - model)))
    ks_crit = 1.628 / np.sqrt(xs.size)
    details.append(f"KS {ks:.4f} (1% critical {ks_crit:.4f})")

    # bit-exact determinism per seed, and seeds actually matter
    a = sample_quadratures(rho, 500, rng_seed=31)
    b = sample_quadratures(rho, 500, rng_seed=31)
    c = sample_quadratures(rho, 500, rng_seed=32)
    herald = HeraldPair(*herald_times(12e-9))
    rho2 = np.kron(rho, np.diag([1.0, 0.0, 0.0]).astype(complex))
    tr_a = synthesize_trace_batch(rho2, f1, f2, herald, 4, rng_seed=77)[0]
    tr_b = synthesize_trace_batch(rho2, f1, f2, herald, 4, rng_seed=77)[0]
    deterministic = (
        np.array_equal(a, b)
        and not np.array_equal(a, c)
        and np.array_equal(tr_a, tr_b)
    )
    details.append(f"deterministic={deterministic}")

    ok = (
        worst_gram < 1e-9
        and worst_trace < 1e-12
        and ll_steps.min() >= -1e-9
        and result.converged
        and ks < ks_crit
        and deterministic
    )
    _report(8, ok, "; ".join(details))
    assert worst_gram < 1e-9
    assert worst_trace < 1e-12
    assert ll_steps.min() >= -1e-9
    assert result.converged
    assert ks < ks_crit
    assert deterministic
