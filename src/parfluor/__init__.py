"""Angular and spectral photon flux of pulse-pumped type-I parametric fluorescence.

Its modules cover crystal dispersion, phase matching, perturbative (single
pair) flux estimates, and a stochastic phase-space simulation of the
high-gain regime, plus a command-line front end.
"""

__version__ = "0.1.0"

from .dispersion import (  # noqa: F401
    CrystalSpec,
    SellmeierSet,
    SpectralPoint,
    make_crystal,
)
