"""Phase mismatch, the perfectly matched emission surface, and its linearization.

A signal component kappa = (w, kx, ky) and an idler component kappa' pair with
the pump component at kappa + kappa'.  Their longitudinal wavevector mismatch

    dk(kappa, kappa') = k_pz(kappa + kappa') - k_z(kappa) - k_z(kappa')

controls how efficiently the pair is generated.  For the central pump
component the mismatch vanishes on an axially symmetric surface
|k_perp| = k0(w); this module solves for that surface in closed form,
converts transverse wavevectors to exterior observation angles, and expands
the mismatch to first order around points on the surface (group-slowness and
walk-off differences).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dispersion as dm
from .dispersion import C_LIGHT, TWO_PI
from .errors import OutOfDispersionWindow


@dataclass(frozen=True)
class LinearizedCoeffs:
    """First-order expansion coefficients of the mismatch in the idler's
    offsets, around the pairs of signals (omega_obs, k0, ky) with their
    idlers (2*omega0 - omega_obs, -k0, -ky) and the central pump component;
    the fields broadcast together (on a surface table, every field is a
    scalar or an array of one shape), and all but omega_obs are NaN where
    omega_obs has no match or the idler is evanescent.

    k0        : the signal's kx [rad/m], the matched |k_perp| on the surface
    d_beta1   : pump-idler inverse-group-velocity difference [s/m]
    d_rho_px/py : pump-idler walk-off differences (dimensionless)
    dk0       : the pair's own mismatch delta_k [rad/m], zero on the surface
    """

    omega_obs: float
    k0: float
    d_beta1: float
    d_rho_px: float
    d_rho_py: float
    dk0: float


def delta_k(kappa: dm.SpectralPoint, kappa_prime: dm.SpectralPoint,
            crystal: dm.CrystalSpec, kz_pump=None):
    """Wavevector mismatch of the pair (kappa, kappa') with its pump component;
    broadcasts over array-valued points.  NaN where the idler kappa' is
    evanescent; an evanescent signal kappa raises EvanescentMode.

    kz_pump, when given, is the pump's k_z at kappa + kappa', computed once
    by a caller whose pairs share it (linearize's central pump component).
    The exact quadrature forms the same difference itself, from the pump
    lattice with each idler kappa_p - kappa implicit."""
    if kz_pump is None:
        kz_pump = dm.kz_pump_grid(kappa.omega + kappa_prime.omega,
                                  kappa.kx + kappa_prime.kx,
                                  kappa.ky + kappa_prime.ky, crystal)
    return (kz_pump - dm.kz_signal_grid(kappa.omega, kappa.kx, kappa.ky, crystal)
            - dm.kz_signal_grid(kappa_prime.omega, kappa_prime.kx, kappa_prime.ky,
                                crystal, allow_evanescent=True))


def perfect_curve(omega_obs, crystal: dm.CrystalSpec) -> np.ndarray:
    """Solve dk = 0 for the transverse wavevector k0 [rad/m] at every omega_obs.

    On the ring of symmetric pairs ((w, k, 0), (2w0 - w, -k, 0)) the mismatch
    is kz_p - sqrt(a^2 - k^2) - sqrt(b^2 - k^2), with kz_p the central
    pump's k_z and a, b the signal and idler |k|; it rises with k, so its one
    root is the height over kz_p of the triangle with sides a, b and kz_p,
    and the signal's k_z is the foot p of that height.  Returns k0 with the
    shape of omega_obs, NaN where the triangle does not close with both
    k_z >= 0.  A signal at or above the pump frequency, which leaves no
    idler frequency, raises OutOfDispersionWindow.
    """
    omega = np.asarray(omega_obs, dtype=float)
    beyond = omega >= crystal.pump_center_omega
    if np.any(beyond):
        lam_nm = TWO_PI * C_LIGHT * 1e9 / np.array([omega[beyond].flat[0],
                                                    crystal.pump_center_omega])
        raise OutOfDispersionWindow(
            f"signal wavelength {lam_nm[0]:.1f} nm is not longer than the pump "
            f"wavelength {lam_nm[1]:.1f} nm, so it leaves no idler frequency")
    omega_idler = crystal.pump_center_omega - omega
    kz_p = dm.kz_pump_grid(crystal.pump_center_omega, 0.0, 0.0, crystal)
    a = dm.k_ordinary(omega, crystal)
    b = dm.k_ordinary(omega_idler, crystal)
    p = (kz_p * kz_p + a * a - b * b) / (2.0 * kz_p)
    # a collinear pair matched to within rounding sits on the axis
    excess = a + b - kz_p
    excess = np.where(excess >= -dm._CONE_RTOL * kz_p, np.maximum(excess, 0.0), excess)
    closes = (excess >= 0.0) & (p >= 0.0) & (p <= kz_p)
    # (a + p)(a - p) factored so that small angles keep their digits
    k0_sq = (a + p) * excess * (kz_p + b - a) / (2.0 * kz_p)
    return np.sqrt(k0_sq, where=closes, out=np.full(omega.shape, np.nan))


def exterior_angle(omega_obs, k_trans):
    """Propagation angle [rad] outside the crystal after exit-face refraction;
    NaN beyond the vacuum light cone, where the mode cannot refract out."""
    ratio = C_LIGHT * np.asarray(k_trans) / omega_obs
    return np.arcsin(np.where(ratio <= 1.0, ratio, np.nan))


def linearize(omega_obs, k0, crystal: dm.CrystalSpec, ky=0.0) -> LinearizedCoeffs:
    """Expansion coefficients of the mismatch around the pairs of the signals
    (omega_obs, k0, ky): the matched points of the surface at ky = 0, or any
    grid mode.

    Each coefficient is the difference of a pump slope at the central pump
    component and the idler's slope at (2w0 - w, -k0, -ky), both in closed
    form (dispersion.kz_slopes), and dk0 is the pair's mismatch at the
    central pump component.
    Broadcasts over arrays; where k0 is NaN (no matched point, see
    perfect_curve) or the idler is evanescent, every coefficient but
    omega_obs is NaN.  An evanescent signal raises EvanescentMode.
    """
    omega = np.asarray(omega_obs, dtype=float)
    k0 = np.asarray(k0, dtype=float)
    ky = np.asarray(ky, dtype=float)
    omega_idler = crystal.pump_center_omega - omega
    ky_idler = 0.0 - ky  # +0.0, not -0.0, at ky = 0, where d_rho_py is then +0.0
    dk0 = delta_k(dm.SpectralPoint(omega, k0, ky),
                  dm.SpectralPoint(omega_idler, -k0, ky_idler), crystal,
                  kz_pump=dm.kz_pump_grid(crystal.pump_center_omega, 0.0, 0.0, crystal))
    beta1_pump, rho_pump_x, rho_pump_y = dm.kz_slopes(
        "pump", crystal.pump_center_omega, 0.0, 0.0, crystal)
    # NaN where the idler is evanescent, which kz_slopes then passes through
    kx_idler = np.where(np.isnan(dk0), np.nan, -k0)
    beta1_idl, rho_idl_x, rho_idl_y = dm.kz_slopes("signal", omega_idler, kx_idler,
                                                   ky_idler, crystal)
    return LinearizedCoeffs(
        omega_obs=omega,
        k0=k0,
        d_beta1=beta1_pump - beta1_idl,
        d_rho_px=rho_pump_x - rho_idl_x,
        d_rho_py=rho_pump_y - rho_idl_y,
        dk0=dk0,
    )


def scan_curve(lams_nm, crystal: dm.CrystalSpec):
    """Tabulate the matched surface over a wavelength grid [nm].

    One closed-form solve and one linearization for the whole grid; returns
    (alpha, coeffs) of the grid's shape: the exterior angles [rad] and the
    LinearizedCoeffs, whose k0 and coefficients are NaN where the surface
    has no point.  alpha is NaN there too, and where the mode cannot
    refract out.
    """
    omega = TWO_PI * C_LIGHT / (np.asarray(lams_nm, dtype=float) * 1e-9)
    k0 = perfect_curve(omega, crystal)
    return exterior_angle(omega, k0), linearize(omega, k0, crystal)
