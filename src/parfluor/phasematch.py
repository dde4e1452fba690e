"""Phase mismatch, the perfectly matched emission surface, and its linearization.

A signal component kappa = (w, kx, ky) and an idler component kappa' pair with
the pump component at kappa + kappa'.  Their longitudinal wavevector mismatch

    dk(kappa, kappa') = k_pz(kappa + kappa') - k_z(kappa) - k_z(kappa')

controls how efficiently the pair is generated.  For the central pump
component the mismatch vanishes on an axially symmetric surface
|k_perp| = k0(w); this module solves for that surface, converts transverse
wavevectors to exterior observation angles, and expands the mismatch to first
order around points on the surface (group-slowness and walk-off differences).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, fields

import numpy as np

from . import dispersion as dm
from .dispersion import C_LIGHT
from .errors import NoPhaseMatch, OutOfDispersionWindow, TotalInternalReflection

log = logging.getLogger(__name__)

SCAN_POINTS = 512
ROOT_TOL = 1e-3  # rad/m; dk*L stays far below the sinc width for mm crystals
ROOT_XTOL = 1e-6  # rad/m, bracket width at which the bisection stops
_SCAN_ROWS = 256  # wavelengths per block of the scan, bounding its memory


@dataclass(frozen=True)
class LinearizedCoeffs:
    """First-order expansion coefficients of the mismatch around the matched
    points at omega_obs; every field is a scalar or an array of one shape.

    d_beta1   : pump-idler inverse-group-velocity difference [s/m]
    d_rho_x/y : pump-signal walk-off differences (dimensionless)
    d_rho_px/py : pump-idler walk-off differences (dimensionless)
    omega_idler : matched idler frequency 2*omega0 - omega_obs [rad/s]
    """

    omega_obs: float
    omega_idler: float
    k0: float
    d_beta1: float
    d_rho_x: float
    d_rho_y: float
    d_rho_px: float
    d_rho_py: float

    def row(self, i) -> "LinearizedCoeffs":
        """The coefficients of one matched point of an array of them."""
        return LinearizedCoeffs(*(np.asarray(getattr(self, f.name))[i]
                                  for f in fields(self)))


def delta_k(kappa: dm.SpectralPoint, kappa_prime: dm.SpectralPoint,
            crystal: dm.CrystalSpec, kz_pump=None):
    """Wavevector mismatch of the pair (kappa, kappa') with its pump component;
    broadcasts over array-valued points.  NaN where the idler kappa' is
    evanescent; an evanescent signal kappa raises EvanescentMode.

    kz_pump, when given, is the pump's k_z at kappa + kappa', computed once
    by a caller whose pairs share their pump components."""
    if kz_pump is None:
        kz_pump = dm.kz_pump_grid(kappa.omega + kappa_prime.omega,
                                  kappa.kx + kappa_prime.kx,
                                  kappa.ky + kappa_prime.ky, crystal)
    return (kz_pump
            - dm.kz_signal_grid(kappa.omega, kappa.kx, kappa.ky, crystal)
            - dm.kz_signal_grid(kappa_prime.omega, kappa_prime.kx, kappa_prime.ky,
                                crystal, allow_evanescent=True))


def _mismatch_on_ring(k, omega_obs, omega_idler, kz_p, crystal):
    """dk for the symmetric pairs ((w, k, 0), (2w0 - w, -k, 0)); kz_p is the
    k_z of the central pump component."""
    return (kz_p - dm.kz_signal_grid(omega_obs, k, 0.0, crystal)
            - dm.kz_signal_grid(omega_idler, k, 0.0, crystal))


def _solve_block(omega, crystal, kz_p):
    """perfect_curve for a 1D block of frequencies."""
    omega_idler = crystal.pump_center_omega - omega
    omega_lo = np.minimum(omega, omega_idler)
    k_max = dm.index_ordinary(omega_lo, crystal) * omega_lo / C_LIGHT
    ks = np.linspace(0.0, k_max, SCAN_POINTS, axis=-1)
    f = _mismatch_on_ring(ks, omega[:, None], omega_idler[:, None], kz_p, crystal)

    exact = np.abs(f) <= ROOT_TOL
    change = np.sign(f[:, :-1]) * np.sign(f[:, 1:]) < 0
    first_exact = np.where(exact.any(axis=1), exact.argmax(axis=1), SCAN_POINTS)
    first_change = np.where(change.any(axis=1), change.argmax(axis=1), SCAN_POINTS)
    k0 = np.full(omega.shape, np.nan)
    on_point = (first_exact < SCAN_POINTS) & (first_exact <= first_change)
    k0[on_point] = ks[on_point, first_exact[on_point]]

    rows = np.flatnonzero(~on_point & (first_change < SCAN_POINTS))
    cols = first_change[rows]
    lo, hi, f_lo = ks[rows, cols], ks[rows, cols + 1], f[rows, cols]
    w_s, w_i = omega[rows], omega_idler[rows]
    n_steps = int(np.ceil(np.log2(np.max(hi - lo) / ROOT_XTOL))) if rows.size else 0
    for _ in range(max(n_steps, 0)):
        mid = 0.5 * (lo + hi)
        f_mid = _mismatch_on_ring(mid, w_s, w_i, kz_p, crystal)
        left = np.sign(f_mid) == np.sign(f_lo)
        lo = np.where(left, mid, lo)
        f_lo = np.where(left, f_mid, f_lo)
        hi = np.where(left, hi, mid)
    k0[rows] = 0.5 * (lo + hi)

    found = np.flatnonzero(np.isfinite(k0))
    residual = _mismatch_on_ring(k0[found], omega[found], omega_idler[found], kz_p,
                                 crystal)
    if np.any(np.abs(residual) > ROOT_TOL):
        raise NoPhaseMatch(
            f"root refinement stalled, |dk| = {np.max(np.abs(residual)):.3g} rad/m")
    for w in omega[change.sum(axis=1) > 1]:
        log.debug("multiple phase-matching roots at omega=%.6g, keeping smallest k", w)
    return k0


def perfect_curve(omega_obs, crystal: dm.CrystalSpec) -> np.ndarray:
    """Solve dk = 0 for the transverse wavevector k0 [rad/m] at every omega_obs.

    Scans k in [0, k_max] (k_max the light-cone bound of the lower-frequency
    photon of the pair) at SCAN_POINTS points per frequency for sign changes,
    then bisects the first bracket of every frequency at once to ROOT_XTOL.
    Returns k0 with the shape of omega_obs, NaN where no sign change exists;
    with multiple sign changes the smallest root is returned and the rest are
    logged.  A signal at or above the pump frequency, which leaves no idler
    frequency, raises OutOfDispersionWindow.
    """
    omega = np.asarray(omega_obs, dtype=float)
    flat = omega.ravel()
    beyond = flat >= crystal.pump_center_omega
    if np.any(beyond):
        lam_nm = 2.0 * np.pi * C_LIGHT * 1e9 / np.array([flat[beyond][0],
                                                         crystal.pump_center_omega])
        raise OutOfDispersionWindow(
            f"signal wavelength {lam_nm[0]:.1f} nm is not longer than the pump "
            f"wavelength {lam_nm[1]:.1f} nm, so it leaves no idler frequency")
    kz_p = dm.kz_pump_grid(crystal.pump_center_omega, 0.0, 0.0, crystal)
    k0 = [_solve_block(flat[i:i + _SCAN_ROWS], crystal, kz_p)
          for i in range(0, flat.size, _SCAN_ROWS)]
    return np.concatenate(k0).reshape(omega.shape) if k0 else np.full(omega.shape, np.nan)


def exterior_angle(omega_obs, k_trans):
    """Propagation angle [rad] outside the crystal after exit-face refraction."""
    ratio = C_LIGHT * np.asarray(k_trans) / omega_obs
    if np.any(ratio > 1.0):
        raise TotalInternalReflection(
            f"c*k/omega = {np.max(ratio):.4f} > 1, component cannot leave the crystal")
    return np.arcsin(ratio)


def linearize(omega_obs, k0, crystal: dm.CrystalSpec) -> LinearizedCoeffs:
    """Expansion coefficients of the mismatch at the matched points (omega_obs, k0).

    Each coefficient is the difference of a pump slope at the central pump
    component and a fluorescence slope at the signal point (w, k0, 0) or the
    idler point (2w0 - w, -k0, 0), all in closed form (dispersion.kz_slopes).
    Broadcasts over arrays; raises NoPhaseMatch where k0 is NaN (no matched
    point, see perfect_curve).
    """
    omega = np.asarray(omega_obs, dtype=float)
    k0 = np.asarray(k0, dtype=float)
    if np.any(np.isnan(k0)):
        bad = np.broadcast_to(omega, k0.shape)[np.isnan(k0)].flat[0]
        raise NoPhaseMatch(f"no matched transverse wavevector at omega={bad:.6g}")
    omega_idler = crystal.pump_center_omega - omega
    beta1_pump, rho_pump_x, rho_pump_y = dm.kz_slopes(
        "pump", crystal.pump_center_omega, 0.0, 0.0, crystal)
    _, rho_sig_x, rho_sig_y = dm.kz_slopes("signal", omega, k0, 0.0, crystal)
    beta1_idl, rho_idl_x, rho_idl_y = dm.kz_slopes("signal", omega_idler, -k0, 0.0,
                                                   crystal)
    return LinearizedCoeffs(
        omega_obs=omega,
        omega_idler=omega_idler,
        k0=k0,
        d_beta1=beta1_pump - beta1_idl,
        d_rho_x=rho_pump_x - rho_sig_x,
        d_rho_y=rho_pump_y - rho_sig_y,
        d_rho_px=rho_pump_x - rho_idl_x,
        d_rho_py=rho_pump_y - rho_idl_y,
    )


def delta_k_linearized(coeffs: LinearizedCoeffs, kx, ky, omega_prime, kxp, kyp):
    """First-order mismatch for a signal at (omega_obs, kx, ky) and an idler
    at (omega', kxp, kyp), absolute coordinates, broadcasting over arrays.

    Valid at the expansion signal frequency; the signal-frequency deviation
    carries no term here, so callers keep omega = omega_obs.
    """
    return (coeffs.d_beta1 * (np.asarray(omega_prime) - coeffs.omega_idler)
            + coeffs.d_rho_x * (np.asarray(kx) - coeffs.k0)
            + coeffs.d_rho_y * np.asarray(ky)
            + coeffs.d_rho_px * (np.asarray(kxp) + coeffs.k0)
            + coeffs.d_rho_py * np.asarray(kyp))


def scan_curve(lambda_lo_nm: float, lambda_hi_nm: float, n_points: int,
               crystal: dm.CrystalSpec):
    """Tabulate the matched surface over a wavelength grid [nm].

    One root solve and one linearization for the whole grid; returns
    (lams, k0, alpha, coeffs): k0 over the grid, NaN where the surface has
    no point, and the exterior angles [rad] and LinearizedCoeffs of the
    matched points only, in grid order.
    """
    lams = np.linspace(lambda_lo_nm, lambda_hi_nm, n_points)
    omega = 2.0 * np.pi * C_LIGHT / (lams * 1e-9)
    k0 = perfect_curve(omega, crystal)
    ok = np.isfinite(k0)
    return (lams, k0, exterior_angle(omega[ok], k0[ok]),
            linearize(omega[ok], k0[ok], crystal))


def write_scan_csv(lams, k0, alpha, coeffs: LinearizedCoeffs, fileobj) -> None:
    """Emit scan_curve columns as CSV; empty fields mark unmatched wavelengths."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["lambda_nm", "k0_rad_per_m", "alpha_ext_deg",
                     "d_beta1_s_per_m", "d_rho_px", "d_rho_py"])
    matched = zip(alpha, coeffs.d_beta1, coeffs.d_rho_px, coeffs.d_rho_py)
    for lam, k in zip(lams, k0):
        if np.isnan(k):
            writer.writerow([f"{lam:.6f}", "", "", "", "", ""])
        else:
            a, d_beta1, d_rho_px, d_rho_py = next(matched)
            writer.writerow([f"{lam:.6f}", f"{k:.6e}", f"{np.rad2deg(a):.6f}",
                             f"{d_beta1:.6e}", f"{d_rho_px:.6e}", f"{d_rho_py:.6e}"])
