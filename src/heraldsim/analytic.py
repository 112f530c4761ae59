"""Closed-form photon statistics of the two-trigger heralded state.

Two trigger detections separated by delta_t herald, in the symmetric and
antisymmetric mode pair (f1, f2), the pure state

    |psi> = [ (1+I)|2,0> - (1-I)|0,2> ] / sqrt(2*(1+I**2)),

with I the trigger-mode overlap.  Everything here follows from that
amplitude pair by elementary algebra:

* the best single-mode two-photon weight  F+- = 1/2 +- I/(1+I**2),
* the photon distribution in the fixed mode g1,
* a binomial (beam-splitter) loss channel on distributions with support
  up to two photons,
* the normalized intensity correlation g2(delta_t) = 1 + I(delta_t)**2
  of the unheralded (thermal) beam.

All functions are pure and operate on plain floats / small arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange, UnsupportedSupport
from .modes import overlap_closed_form


@dataclass(frozen=True)
class PhotonDistribution:
    """Probabilities over Fock numbers 0..cutoff; validated on construction."""

    probs: np.ndarray = field(repr=True)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float).copy()
        if p.ndim != 1 or p.size == 0:
            raise OutOfRange("photon distribution must be a non-empty 1-d array")
        # written so that NaN fails them
        if not (np.all(p >= -1e-12) and np.all(p <= 1.0 + 1e-12)):
            raise OutOfRange(f"probabilities outside [0,1]: {p}")
        if not abs(float(p.sum()) - 1.0) <= 1e-12:
            raise OutOfRange(f"probabilities sum to {float(p.sum())!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def cutoff(self) -> int:
        return self.probs.size - 1

    def p(self, n: int) -> float:
        if not 0 <= n <= self.cutoff:
            raise OutOfRange(f"Fock index {n} outside [0, {self.cutoff}]")
        return float(self.probs[n])

    def mean(self) -> float:
        return float(np.dot(np.arange(self.probs.size), self.probs))


def _check_overlap_value(ov: float) -> None:
    if not (math.isfinite(ov) and 0.0 <= ov <= 1.0):
        raise OutOfRange(f"overlap must lie in [0, 1], got {ov}")


def fidelity_optimal(ov: float) -> tuple[float, float]:
    """Two-photon weights of the adapted modes f1 and f2.

        F+ = 1/2 + I/(1+I**2)   (symmetric mode, the best single mode),
        F- = 1/2 - I/(1+I**2)   (antisymmetric mode).

    The pair sums to 1 exactly: the state carries its two photons entirely
    within the (f1, f2) span.
    """
    _check_overlap_value(ov)
    corr = ov / (1.0 + ov * ov)
    f_plus = 0.5 + corr
    return f_plus, 1.0 - f_plus


def fixed_mode_distribution(ov: float) -> PhotonDistribution:
    """Photon distribution in the fixed trigger mode g1 (lossless):

        P2 = 2*I**2/(1+I**2),   P1 = 1 - P2,   P0 = 0.

    One photon always occupies g1; the second photon lands in g1 with the
    interference-enhanced weight P2.
    """
    _check_overlap_value(ov)
    p2 = 2.0 * ov * ov / (1.0 + ov * ov)
    return PhotonDistribution(np.array([0.0, 1.0 - p2, p2]))


def _check_transmission(eta: float) -> None:
    if not (0.0 <= eta <= 1.0):
        raise OutOfRange(f"transmission must lie in [0, 1], got {eta}")


def apply_loss(dist: PhotonDistribution, eta: float) -> PhotonDistribution:
    """Binomial loss channel with transmission ``eta`` on support <= 2:

        P2' = P2*eta**2
        P1' = 2*P2*eta*(1-eta) + P1*eta
        P0' = 1 - P1' - P2'

    Trace is preserved exactly by construction of P0'.
    """
    _check_transmission(eta)
    if dist.cutoff > 2 and float(np.sum(dist.probs[3:])) > 0.0:
        raise UnsupportedSupport("closed-form loss supports at most two photons")
    p = dist.probs
    p1 = p[1] if dist.cutoff >= 1 else 0.0
    p2 = p[2] if dist.cutoff >= 2 else 0.0
    p2_out = p2 * eta * eta
    p1_out = 2.0 * p2 * eta * (1.0 - eta) + p1 * eta
    p0_out = 1.0 - p1_out - p2_out
    return PhotonDistribution(np.array([p0_out, p1_out, p2_out]))


def g2_closed_form(delta_t, gamma: float):
    """Normalized intensity correlation of the unheralded beam:

        g2(delta_t) = 1 + I(delta_t)**2
                    = 1 + exp(-2*pi*gamma*|delta_t|)*(1 + pi*gamma*|delta_t|)**2.

    Thermal bunching: g2(0) = 2, decaying to 1 at large separation.
    Accepts a scalar or an array of separations.
    """
    ov = overlap_closed_form(delta_t, gamma)
    return 1.0 + ov * ov


def two_photon_weight_lossy(delta_t: float, gamma: float, eta: float) -> float:
    """Two-photon probability in the adapted mode f1 after transmission eta:
    eta**2 * F+(I(delta_t)).  This is exact for the support-2 state: loss
    multiplies the two-photon weight by eta**2."""
    _check_transmission(eta)
    f_plus, _ = fidelity_optimal(overlap_closed_form(delta_t, gamma))
    return eta * eta * f_plus
