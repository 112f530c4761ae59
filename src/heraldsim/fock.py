"""Truncated multimode Fock engine.

Brute-force counterpart to the closed-form results in :mod:`heraldsim.analytic`:
states of a small register of orthonormal temporal modes are represented as
density matrices over occupation tuples (n_1, ..., n_M) with
sum(n) <= n_max, ordered lexicographically.  The engine supports

* building the heralded state  a+[g1] a+[g2] |0>  (normalized) from the
  decomposition of the trigger wavepackets over the register,
* per-mode binomial loss via photon-number Kraus operators,
* reduction to the state of one analysis mode, including the vacuum
  admixture for any mode component outside the register span, or of an
  orthonormal analysis pair inside it.

The one-mode loss channel is the register's per-mode loss sum on the
basis (0,), ..., (n_max,), and both reductions rotate the density matrix
so the analysis modes lead and trace out the rest with one helper.

Everything is dense numpy; register sizes of interest are a handful of
modes with at most four photons, so dimensions stay below ~10^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import PhotonDistribution, _check_transmission
from .errors import (
    CutoffExceeded,
    GridMismatch,
    InvalidDensity,
    ModesNotOrthogonal,
    OutOfRange,
    SpanDeficit,
)
from .modes import ModeFunction, overlap

# Pairwise orthonormality tolerance for register modes.
REGISTER_GRAM_TOL = 1e-8
# L2 mass a wavepacket may carry outside the register span when building states.
SPAN_TOL = 1e-6


def basis_tuples(n_modes: int, n_max: int) -> list[tuple[int, ...]]:
    """Occupation tuples with total photon number <= n_max, lexicographic."""
    # itertools.product yields its tuples in lexicographic order already
    return [t for t in itertools.product(range(n_max + 1), repeat=n_modes) if sum(t) <= n_max]


@dataclass(frozen=True)
class ModeRegister:
    """An ordered list of pairwise-orthonormal modes on a shared grid."""

    modes: tuple[ModeFunction, ...]

    def __post_init__(self) -> None:
        modes = tuple(self.modes)
        if not modes:
            raise OutOfRange("register needs at least one mode")
        grid = modes[0].grid
        for m in modes:
            if m.grid != grid:
                raise GridMismatch("register modes on different grids")
        object.__setattr__(self, "modes", modes)
        gram = np.array([[overlap(a, b) for b in modes] for a in modes])
        if np.max(np.abs(gram - np.eye(len(modes)))) > REGISTER_GRAM_TOL:
            raise ModesNotOrthogonal(
                f"register modes not orthonormal within {REGISTER_GRAM_TOL:g}"
            )

    def __len__(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class MultimodeState:
    """Density matrix over the truncated occupation basis of a register."""

    register: ModeRegister
    n_max: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.n_max < 2:
            raise CutoffExceeded(f"n_max must be >= 2, got {self.n_max}")
        basis = basis_tuples(len(self.register), self.n_max)
        rho = np.asarray(self.rho, dtype=complex).copy()
        dim = len(basis)
        if rho.shape != (dim, dim):
            raise InvalidDensity(f"rho shape {rho.shape}, expected {(dim, dim)}")
        check_density(rho)
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(basis)})

    @property
    def basis(self) -> list[tuple[int, ...]]:
        return list(self._basis)  # type: ignore[attr-defined]

    def index_of(self, occ: tuple[int, ...]) -> int:
        return self._index[occ]  # type: ignore[attr-defined]


def check_density(rho: np.ndarray) -> None:
    # written so that NaN fails them
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= 1e-8:
        raise InvalidDensity(f"trace {tr} differs from 1")
    if not np.max(np.abs(rho - rho.conj().T)) <= 1e-8:
        raise InvalidDensity("matrix not Hermitian")
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if not evals.min() >= -1e-8:
        raise InvalidDensity(f"negative eigenvalue {evals.min():.3e}")


def build_heralded_state(
    register: ModeRegister,
    g1: ModeFunction,
    g2: ModeFunction,
    n_max: int = 2,
) -> MultimodeState:
    """Normalized pure state  a+[g1] a+[g2] |0>  over the register.

    With a_m = <h_m, g1> and b_m = <h_m, g2> the creation-operator product
    expands to amplitudes sqrt(2)*a_m*b_m on |2_m> and
    (a_m*b_n + a_n*b_m) on |1_m 1_n>.  The squared norm
    before normalization equals 1 + <g1,g2>**2 when both wavepackets lie
    in the span.

    Raises
    ------
    SpanDeficit
        If either wavepacket carries more than 1e-6 of its L2 mass
        outside the register span.
    CutoffExceeded
        If n_max < 2 (the state has two photons).
    """
    if n_max < 2:
        raise CutoffExceeded(f"two-photon state needs n_max >= 2, got {n_max}")
    # r1, r2: the L2 mass of g1, g2 outside the register span
    a = np.array([overlap(h, g1) for h in register.modes])
    b = np.array([overlap(h, g2) for h in register.modes])
    r1 = g1.norm_squared() - float(np.dot(a, a))
    r2 = g2.norm_squared() - float(np.dot(b, b))
    if r1 > SPAN_TOL or r2 > SPAN_TOL:
        raise SpanDeficit(
            f"wavepacket mass outside register span: {r1:.2e}, {r2:.2e} (tolerance {SPAN_TOL:g})"
        )
    m_count = len(register)
    basis = basis_tuples(m_count, n_max)
    psi = np.zeros(len(basis), dtype=complex)
    for m in range(m_count):
        occ = [0] * m_count
        occ[m] = 2
        psi[basis.index(tuple(occ))] += math.sqrt(2.0) * a[m] * b[m]
        for n in range(m + 1, m_count):
            occ2 = [0] * m_count
            occ2[m] = 1
            occ2[n] = 1
            psi[basis.index(tuple(occ2))] += a[m] * b[n] + a[n] * b[m]
    nrm = float(np.linalg.norm(psi))
    if nrm == 0.0:
        raise SpanDeficit("heralded amplitude vanished; register does not see the triggers")
    psi /= nrm
    return MultimodeState(register=register, n_max=n_max, rho=np.outer(psi, psi.conj()))


def _mode_kraus_on_basis(
    basis: list[tuple[int, ...]], index: dict, mode: int, k: int, eta: float
) -> np.ndarray:
    """Photon-loss Kraus operator K_k of one mode on an occupation basis:
    K_k |n> = sqrt(binom(n,k) * eta**(n-k) * (1-eta)**k) |n-k> in ``mode``."""
    dim = len(basis)
    op = np.zeros((dim, dim))
    for j, occ in enumerate(basis):
        n = occ[mode]
        if n < k:
            continue
        coeff = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
        target = list(occ)
        target[mode] = n - k
        op[index[tuple(target)], j] = coeff
    return op


def _loss_on_mode(
    rho: np.ndarray, basis: list[tuple[int, ...]], index: dict, mode: int, n_max: int, eta: float
) -> np.ndarray:
    """Binomial loss on one mode: the sum over k <= n_max of K_k rho K_k^T."""
    out = np.zeros_like(rho)
    for k in range(n_max + 1):
        kk = _mode_kraus_on_basis(basis, index, mode, k, eta)
        out += kk @ rho @ kk.T
    return out


def loss_channel_single(rho: np.ndarray, eta: float) -> np.ndarray:
    """Binomial loss channel on a single-mode density matrix."""
    _check_transmission(eta)
    rho = np.asarray(rho, dtype=complex)
    n_max = rho.shape[0] - 1
    basis = [(n,) for n in range(n_max + 1)]
    return _loss_on_mode(rho, basis, {t: i for i, t in enumerate(basis)}, 0, n_max, eta)


def apply_loss_channel(state: MultimodeState, eta: float) -> MultimodeState:
    """Apply identical binomial loss with transmission ``eta`` to every mode.

    Photon loss only lowers occupation numbers, so the truncated basis is
    closed under the channel and the trace is preserved to float accuracy.
    """
    _check_transmission(eta)
    basis, index = state.basis, state._index  # type: ignore[attr-defined]
    rho = np.asarray(state.rho, dtype=complex)
    for mode in range(len(state.register)):
        rho = _loss_on_mode(rho, basis, index, mode, state.n_max, eta)
    return MultimodeState(register=state.register, n_max=state.n_max, rho=rho)


def _transform_matrix(basis: list[tuple[int, ...]], index: dict, unitary: np.ndarray) -> np.ndarray:
    """Matrix of the passive transform on the occupation basis.

    New-mode creation operators are b+_m = sum_k U[m,k] a+_k, so the old
    operators expand as a+_k = sum_m U[m,k] b+_m (U real orthogonal) and
    each old basis state is re-expanded as a polynomial of b+ acting on
    vacuum.  Number conservation keeps the truncation exact.
    """
    m_count = unitary.shape[0]
    dim = len(basis)
    out = np.zeros((dim, dim))
    vacuum = tuple([0] * m_count)
    for j, occ in enumerate(basis):
        amps: dict[tuple[int, ...], float] = {vacuum: 1.0}
        for k, reps in enumerate(occ):
            for _ in range(reps):
                nxt: dict[tuple[int, ...], float] = {}
                for t, amp in amps.items():
                    for m in range(m_count):
                        coeff = unitary[m, k]
                        if coeff == 0.0:
                            continue
                        tt = list(t)
                        tt[m] += 1
                        key = tuple(tt)
                        nxt[key] = nxt.get(key, 0.0) + amp * coeff * math.sqrt(tt[m])
                amps = nxt
        scale = 1.0 / math.sqrt(math.prod(math.factorial(n) for n in occ))
        for t, amp in amps.items():
            out[index[t], j] = amp * scale
    return out


def _rotate_and_trace(state: MultimodeState, rows: np.ndarray) -> np.ndarray:
    """State of the orthonormal register combinations ``rows`` (k x M).

    The rows are completed to a real orthogonal matrix, the density matrix
    is rotated so they become its first k modes, and the other modes are
    traced out.  Output is on the kept modes' product basis, indexed by
    their occupations as a base-(n_max+1) number, e.g. (n_a, n_b) ->
    n_a*(n_max+1) + n_b.
    """
    k, m_count = rows.shape
    a = np.eye(m_count)
    a[:, :k] = rows.T
    q, r = np.linalg.qr(a)
    # QR may flip signs of the leading columns; undo so rows are exact.
    for i in range(k):
        if r[i, i] < 0:
            q[:, i] *= -1.0
    u = q.T
    u[:k] = rows  # exact leading rows, orthonormal by precondition
    transform = _transform_matrix(state.basis, state._index, u)  # type: ignore[attr-defined]
    rho, basis = transform @ np.asarray(state.rho) @ transform.T, state.basis
    d = state.n_max + 1
    out = np.zeros((d**k, d**k), dtype=complex)

    def flat(occ: tuple[int, ...]) -> int:
        f = 0
        for n in occ[:k]:
            f = f * d + n
        return f

    for i, occ_i in enumerate(basis):
        for j, occ_j in enumerate(basis):
            if occ_i[k:] == occ_j[k:]:
                out[flat(occ_i), flat(occ_j)] += rho[i, j]
    return out


def reduce_to_mode(state: MultimodeState, xi: ModeFunction) -> np.ndarray:
    """Single-mode density matrix of analysis mode ``xi``.

    The mode is split as xi = s*xi_par + c*xi_perp with xi_par the
    normalized in-span part (s**2 = in-span L2 mass) and xi_perp outside
    the register, where the state is vacuum.  The register is rotated so
    its first mode is xi_par, the rest are traced out, and the vacuum
    admixture is accounted for by a beam-splitter (loss) channel with
    transmission s**2.

    Returns an (n_max+1) x (n_max+1) complex density matrix.
    """
    c = np.array([overlap(h, xi) for h in state.register.modes])
    s_sq = float(np.dot(c, c))
    norm_sq = xi.norm_squared()
    if abs(norm_sq - 1.0) > 1e-9:
        raise GridMismatch("analysis mode must be normalized")
    d = state.n_max + 1
    if s_sq < 1e-12:
        vac = np.zeros((d, d), dtype=complex)
        vac[0, 0] = 1.0
        return vac
    if len(state.register) == 1:
        rho_par = np.asarray(state.rho, dtype=complex).copy()
    else:
        rho_par = _rotate_and_trace(state, (c / math.sqrt(s_sq))[None, :])
    if s_sq < 1.0 - 1e-12:
        rho_par = loss_channel_single(rho_par, min(s_sq, 1.0))
    return rho_par


def reduce_to_mode_pair(
    state: MultimodeState, xi_a: ModeFunction, xi_b: ModeFunction
) -> np.ndarray:
    """Two-mode density matrix of an orthonormal analysis pair in the span.

    Both modes must lie inside the register span (mass deficit < 1e-9) and
    be orthogonal; the register is rotated so they occupy the first two
    slots and everything else is traced out.  Output is indexed by
    (n_a, n_b) -> n_a*(n_max+1) + n_b on the product basis.
    """
    ca = np.array([overlap(h, xi_a) for h in state.register.modes])
    cb = np.array([overlap(h, xi_b) for h in state.register.modes])
    if abs(float(np.dot(ca, cb))) > 1e-9:
        raise ModesNotOrthogonal("analysis pair not orthogonal")
    for c, m in ((ca, xi_a), (cb, xi_b)):
        deficit = m.norm_squared() - float(np.dot(c, c))
        if deficit > 1e-9:
            raise SpanDeficit(
                f"analysis mode carries {deficit:.2e} L2 mass outside the register"
            )
    return _rotate_and_trace(state, np.stack([ca / np.linalg.norm(ca), cb / np.linalg.norm(cb)]))


def photon_distribution(rho: np.ndarray) -> PhotonDistribution:
    """Diagonal of a single-mode density matrix as a PhotonDistribution."""
    rho = np.asarray(rho, dtype=complex)
    check_density(rho)
    diag = np.clip(np.real(np.diag(rho)), 0.0, None)
    diag = diag / diag.sum()
    return PhotonDistribution(diag)
