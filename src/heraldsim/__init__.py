"""heraldsim: simulator and analysis toolkit for continuous-wave heralded
photon-pair state engineering with time-separated trigger detections.

Submodules
----------
modes     temporal trigger modes, overlaps, orthonormal analysis bases
analytic  closed-form photon statistics, fidelities, loss, g2
fock      truncated multimode Fock engine (brute-force cross-check)
homodyne  quadrature samplers and homodyne trace synthesis
clicks    thermal click streams, g2 histograms, coincidence selection
tomo      maximum-likelihood photon-number tomography
experiments / cli  reproducible experiment drivers and command line
"""

__version__ = "0.1.0"

# cli is left out: ``python -m heraldsim.cli`` must find it unimported
from . import analytic, clicks, errors, experiments, fock, homodyne, modes, tomo

__all__ = [
    "analytic",
    "clicks",
    "errors",
    "experiments",
    "fock",
    "homodyne",
    "modes",
    "tomo",
]
