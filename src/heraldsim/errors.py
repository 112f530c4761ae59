"""Exception taxonomy shared by all heraldsim modules.

Every failure mode raised by the public API derives from ``HeraldSimError``
so callers (and the CLI error reporter) can catch one base class.  The
subclasses are deliberately fine grained: each names one violated
precondition, and tests assert on the exact class.
"""

from __future__ import annotations


class HeraldSimError(ValueError):
    """Base class for all heraldsim errors."""


# ---- time grids and temporal modes ----

class InvalidGamma(HeraldSimError):
    """Bandwidth must be a finite positive frequency."""


class MarginTooSmall(HeraldSimError):
    """Grid cannot contain a mode's exponential tails (truncated mass too large)."""


class GridMismatch(HeraldSimError):
    """Two sampled objects live on different time grids."""


class DegenerateModes(HeraldSimError):
    """Trigger modes overlap so strongly the antisymmetric combination vanishes."""


class RankDeficient(HeraldSimError):
    """Seed modes are numerically linearly dependent."""


# ---- closed-form photon statistics ----

class OutOfRange(HeraldSimError):
    """Scalar argument outside its documented domain."""


class UnsupportedSupport(HeraldSimError):
    """Photon distribution has weight above the supported Fock cutoff."""


# ---- truncated Fock engine ----

class SpanDeficit(HeraldSimError):
    """Mode register does not span the requested wavepacket."""


class CutoffExceeded(HeraldSimError):
    """Requested Fock index above the engine's truncation."""


class InvalidDensity(HeraldSimError):
    """Matrix is not a density matrix (trace, Hermiticity or positivity)."""


# ---- homodyne synthesis ----

class ModesNotOrthogonal(HeraldSimError):
    """Analysis modes passed where an orthonormal pair is required."""


# ---- click statistics ----

class ResolutionTooCoarse(HeraldSimError):
    """Field grid too coarse to resolve the coherence time, or mode grid
    too coarse to give the trigger-mode overlap its closed form."""


class DurationTooShort(HeraldSimError):
    """Simulated duration too short for stationary statistics."""


class RateTooHigh(HeraldSimError):
    """Mean click rate violates the thinning validity bound."""


class InsufficientStatistics(HeraldSimError):
    """Too few events for the requested normalization accuracy."""


class InsufficientPairs(HeraldSimError):
    """No delay bin collected enough coincidence pairs to reconstruct."""


# ---- tomography ----

class EmptyInput(HeraldSimError):
    """No samples supplied."""
