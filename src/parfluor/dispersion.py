"""Refractive indices and longitudinal wavevectors for a uniaxial crystal.

The fluorescence propagates as an o-ray, the pump as an e-ray in a crystal
whose optic axis is tilted by the cut angle theta from the propagation (z)
axis, in the x-z plane.  All functions work in SI units (angular frequency
in rad/s, wavevectors in rad/m) and accept either scalars or numpy arrays
for the spectral coordinates.

Material dispersion follows a Sellmeier form

    n^2(lam) = b0 + b1 / (lam^2 - c1) - b2 * lam^2        (lam in micrometers)

with coefficient sets loaded from JSON documents, so crystals other than the
shipped BBO can be substituted.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import EvanescentMode, NoRealRoot, OutOfDispersionWindow

C_LIGHT = 299_792_458.0  # m/s, exact in SI (scipy.constants.c)
TWO_PI = 2.0 * np.pi
DATA_DIR_ENV = "PARFLUOR_DATA_DIR"
# a point on a light cone can square to a radicand a few ulp below zero
_CONE_RTOL = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SpectralPoint:
    """One plane-wave component: angular frequency and transverse wavevector;
    the fields may be arrays that broadcast together, a set of components.

    omega : rad/s, must be positive
    kx, ky : rad/m
    """

    omega: float
    kx: float = 0.0
    ky: float = 0.0

    def __post_init__(self):
        if not np.all(np.asarray(self.omega) > 0):
            raise ValueError("omega must be positive")


@dataclass(frozen=True)
class SellmeierSet:
    """Coefficients of n^2 = b0 + b1/(lam^2 - c1) - b2*lam^2, lam in um.

    Evaluation is restricted to [window_nm[0], window_nm[1]]; outside that
    range the fit is meaningless and an OutOfDispersionWindow is raised.
    """

    b0: float
    b1: float
    c1: float
    b2: float
    window_nm: tuple[float, float]

    def index_at_omega(self, omega):
        """Refractive index n at angular frequency omega [rad/s]."""
        lam_um = TWO_PI * C_LIGHT / np.asarray(omega, dtype=float) * 1e6
        lam_nm = lam_um * 1e3
        lo, hi = self.window_nm
        if np.any(lam_nm < lo) or np.any(lam_nm > hi):
            bad = float(np.ravel(lam_nm)[np.argmax((lam_nm < lo) | (lam_nm > hi))])
            raise OutOfDispersionWindow(
                f"wavelength {bad:.1f} nm outside Sellmeier window [{lo:.0f}, {hi:.0f}] nm"
            )
        lam2 = lam_um * lam_um
        n2 = self.b0 + self.b1 / (lam2 - self.c1) - self.b2 * lam2
        if np.any(n2 <= 1.0):
            raise OutOfDispersionWindow(
                "Sellmeier evaluation gave n^2 <= 1 inside the declared window"
            )
        return np.sqrt(n2)

    def index_and_slope(self, omega):
        """(n, dn/d(omega) [s/rad]) at omega, the slope from the closed-form
        Sellmeier derivative."""
        omega = np.asarray(omega, dtype=float)
        n = self.index_at_omega(omega)
        lam_um = TWO_PI * C_LIGHT / omega * 1e6
        lam2 = lam_um * lam_um
        # dn/dw = -(lam/w) dn/dlam, dn/dlam = -lam (b1/(lam^2-c1)^2 + b2) / n
        return n, lam2 * (self.b1 / (lam2 - self.c1) ** 2 + self.b2) / (omega * n)


@dataclass(frozen=True)
class CrystalSpec:
    """Crystal cut, length and material data.

    theta_cut : angle between optic axis and z [rad], in (0, pi/2)
    length : crystal length L [m]
    pump_center_omega : central pump angular frequency 2*omega0 [rad/s]
    """

    theta_cut: float
    length: float
    sellmeier_o: SellmeierSet
    sellmeier_e: SellmeierSet
    pump_center_omega: float
    name: str = "crystal"

    def __post_init__(self):
        if not 0.0 < self.theta_cut < np.pi / 2:
            raise ValueError("theta_cut must lie in (0, pi/2)")
        if not self.length > 0:
            raise ValueError("crystal length must be positive")
        if not self.pump_center_omega > 0:
            raise ValueError("pump_center_omega must be positive")


def _finite_numbers(values, what: str) -> tuple:
    """values as a tuple of floats, or ValueError naming what unless each is
    a JSON number that is a finite float (an integer too large for one is not)."""
    if not isinstance(values, (list, tuple)) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max for v in values):
        raise ValueError(f"'{what}' must hold finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


def load_material(source) -> dict:
    """Read and check a crystal material document (path or material name).

    The document is a JSON object {"name", "sellmeier_o", "sellmeier_e",
    "window_nm"}: each Sellmeier set holds exactly the numbers b0, b1, c1
    and b2, and window_nm, [180, 2600] if absent, is [low, high] in nm with
    0 < low < high.  A name resolves to an existing ".json" path, then to
    $PARFLUOR_DATA_DIR/<name>.json, then to the shipped parfluor/data; "bbo"
    is the default beta-barium-borate coefficient sets.  A document of
    another shape raises ValueError (so does malformed JSON), a missing
    Sellmeier set KeyError.
    """
    path = Path(source)
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir and not (path.suffix == ".json" and path.exists()):
        path = Path(data_dir) / f"{source}.json"
    if path.suffix == ".json" and path.exists():
        doc = json.loads(path.read_text())
    else:
        ref = resources.files("parfluor").joinpath(f"data/{str(source).lower()}.json")
        doc = json.loads(ref.read_text())
    if not isinstance(doc, dict):
        raise ValueError("a material document must be a JSON object")
    sets = ("sellmeier_o", "sellmeier_e")
    for key in sets:
        if key not in doc:
            raise KeyError(f"material document missing '{key}'")
    window = _finite_numbers(doc.get("window_nm", [180.0, 2600.0]), "window_nm")
    if len(window) != 2 or not 0 < window[0] < window[1]:
        raise ValueError(f"'window_nm' must be [low, high] with 0 < low < high, "
                         f"got {list(window)}")
    material = {"name": doc.get("name", "crystal")}
    for key in sets:
        coeffs = doc[key]
        names = ("b0", "b1", "c1", "b2")  # SellmeierSet's order
        if not isinstance(coeffs, dict) or set(coeffs) != set(names):
            raise ValueError(f"'{key}' must hold exactly b0, b1, c1 and b2, got {coeffs!r}")
        material[key] = SellmeierSet(*_finite_numbers([coeffs[c] for c in names], key),
                                     window_nm=window)
    return material


def make_crystal(theta_cut, length, pump_wavelength, material="bbo") -> CrystalSpec:
    """Build a CrystalSpec from cut angle [rad], length [m], pump vacuum
    wavelength [m] and a material: a name or path for load_material, or
    the document it returned."""
    mat = material if isinstance(material, dict) else load_material(material)
    return CrystalSpec(
        theta_cut=theta_cut,
        length=length,
        sellmeier_o=mat["sellmeier_o"],
        sellmeier_e=mat["sellmeier_e"],
        pump_center_omega=TWO_PI * C_LIGHT / pump_wavelength,
        name=mat["name"],
    )


def k_ordinary(omega, crystal: CrystalSpec):
    """o-ray wavenumber n_o w / c [rad/m] at angular frequency omega [rad/s]."""
    omega = np.asarray(omega, dtype=float)
    return crystal.sellmeier_o.index_at_omega(omega) * omega / C_LIGHT


def kz_signal_grid(omega, kx, ky, crystal: CrystalSpec, allow_evanescent=False,
                   k2=None):
    """o-ray longitudinal wavevector sqrt(k2 - kx^2 - ky^2), k2 = (n_o w/c)^2.

    Broadcasts over array inputs.  Components on the light cone to within
    rounding get k_z = 0.  Evanescent components (negative radicand) raise
    EvanescentMode unless allow_evanescent is set, in which case they come
    back as NaN so callers can mask them.  k2, when given, is
    k_ordinary(omega)^2, computed once by a caller that evaluates many
    transverse wavevectors at the same frequencies; omega is then not read.
    """
    if k2 is None:
        k2 = k_ordinary(omega, crystal) ** 2
    radicand = k2 - np.asarray(kx) ** 2 - np.asarray(ky) ** 2
    if np.any(radicand < 0):
        radicand = np.where(radicand >= -_CONE_RTOL * k2, np.maximum(radicand, 0.0),
                            radicand)
    if np.any(radicand < 0):
        if not allow_evanescent:
            raise EvanescentMode("transverse wavevector beyond the o-ray light cone")
        radicand = np.where(radicand < 0, np.nan, radicand)
    return np.sqrt(radicand)


def kz_pump_grid(omega, kx, ky, crystal: CrystalSpec):
    """e-ray longitudinal wavevector: forward root of the dispersion relation
    u^2/n_e^2 + (v^2 + ky^2)/n_o^2 = w^2/c^2, a quadratic a2*kz^2 + a1*kz + a0
    = 0 in kz, with u = sin(theta)*kz + cos(theta)*kx along the optic axis and
    v = cos(theta)*kz - sin(theta)*kx across it in the x-z plane.

    The tilt sign is chosen so the pump walk-off slope d(kz)/d(kx) is negative
    at kx = ky = 0.  The forward root is the one continuously connected to
    +n_e(theta)*w/c at kx = ky = 0 (the larger of the two real roots).
    """
    omega = np.asarray(omega, dtype=float)
    n_o = crystal.sellmeier_o.index_at_omega(omega)
    n_e = crystal.sellmeier_e.index_at_omega(omega)
    inv_ne2 = 1.0 / (n_e * n_e)
    inv_no2 = 1.0 / (n_o * n_o)
    ct, st = np.cos(crystal.theta_cut), np.sin(crystal.theta_cut)
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    w2c2 = (omega / C_LIGHT) ** 2
    a2 = inv_ne2 * st * st + inv_no2 * ct * ct
    a1 = 2.0 * kx * ct * st * (inv_ne2 - inv_no2)
    a0 = inv_ne2 * kx * kx * ct * ct + inv_no2 * (kx * kx * st * st + ky * ky) - w2c2
    disc = a1 * a1 - 4.0 * a2 * a0
    if np.any(disc < 0):
        raise NoRealRoot("e-ray dispersion quadratic has no real root")
    return (-a1 + np.sqrt(disc)) / (2.0 * a2)


def kz_slopes(ray: str, omega, kx, ky, crystal: CrystalSpec):
    """Group slowness d(kz)/d(omega) [s/m] and walk-off slopes d(kz)/d(kx),
    d(kz)/d(ky) (dimensionless) of the o-ray ('signal') or e-ray ('pump').

    Closed form: the Sellmeier derivative for the frequency dependence, and
    for the e-ray implicit differentiation of its dispersion quadratic.
    Broadcasts over array inputs; returns the three slopes.
    """
    omega = np.asarray(omega, dtype=float)
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    n_o, dn_o = crystal.sellmeier_o.index_and_slope(omega)
    if ray == "signal":
        kz = kz_signal_grid(omega, kx, ky, crystal)
        beta1 = n_o * omega * (n_o + omega * dn_o) / (C_LIGHT**2 * kz)
        return beta1, -kx / kz, -ky / kz
    if ray != "pump":
        raise ValueError(f"unknown ray {ray!r}, expected 'signal' or 'pump'")
    n_e, dn_e = crystal.sellmeier_e.index_and_slope(omega)
    kz = kz_pump_grid(omega, kx, ky, crystal)
    # implicit differentiation of F = u^2/n_e^2 + (v^2 + ky^2)/n_o^2 - w^2/c^2
    # = 0, u and v as in kz_pump_grid
    ct, st = np.cos(crystal.theta_cut), np.sin(crystal.theta_cut)
    u = st * kz + ct * kx
    v = ct * kz - st * kx
    inv_ne2 = 1.0 / (n_e * n_e)
    inv_no2 = 1.0 / (n_o * n_o)
    f_kz = 2.0 * (inv_ne2 * u * st + inv_no2 * v * ct)
    f_kx = 2.0 * (inv_ne2 * u * ct - inv_no2 * v * st)
    f_ky = 2.0 * inv_no2 * ky
    f_w = -2.0 * (dn_e * inv_ne2 / n_e * u * u + dn_o * inv_no2 / n_o * (v * v + ky * ky)
                  + omega / C_LIGHT**2)
    return -f_w / f_kz, -f_kx / f_kz, -f_ky / f_kz
