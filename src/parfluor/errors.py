"""Exception types shared across the package."""


class ParfluorError(Exception):
    """Base class for all computation errors raised by this package."""


class OutOfDispersionWindow(ParfluorError):
    """Wavelength falls outside the validity window of a Sellmeier fit."""


class EvanescentMode(ParfluorError):
    """Transverse wavevector lies beyond the light cone, k_z would be imaginary."""


class NoRealRoot(ParfluorError):
    """The extraordinary-ray dispersion quadratic has no real forward root."""


class NotConverged(ParfluorError):
    """An iterative refinement failed to reach the requested tolerance."""


class GridUnderresolved(ParfluorError):
    """A simulation grid contains modes the crystal cannot propagate."""


class ConfigError(ParfluorError):
    """A run configuration is malformed or inconsistent."""
