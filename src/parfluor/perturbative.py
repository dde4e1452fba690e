"""Single-pair-regime photon flux of the fluorescence.

Three routes to the mean mode occupation n(kappa), cross-checking each other:

* a closed-form estimate on the perfectly matched surface, from the Gaussian
  pump and the linearized mismatch;
* a direct 3D quadrature of the pair-generation integral with the exact
  sinc^2 phase-matching factor (the reference the others are judged against);
* the same quadrature with the sinc^2 replaced by its Gaussian surrogate
  exp(-(L dk)^2 / 12) and the mismatch linearized, whose analytic integral
  is the closed form above.

Fluxes are reported in mode-occupation units with the pump amplitude scale
absorbed into the nonlinear length; only ratios and shapes are meaningful,
and everything scales exactly as (L / L_NL)^2.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import dispersion as dm
from . import phasematch as pmm
from .dispersion import C_LIGHT
from .errors import NotConverged, OutOfDispersionWindow

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump pulse at the crystal entrance face.

    tau_p : pulse duration [s] (1/e half-width of the field envelope)
    w_p : beam width [m] (1/e half-width of the field envelope)
    omega_center : central angular frequency 2*omega0 [rad/s]
    l_nl : nonlinear length [m] at the pulse's peak amplitude, which is 1;
        the gain parameter is L / l_nl, and np.inf turns the coupling off
    """

    tau_p: float
    w_p: float
    omega_center: float
    l_nl: float

    def __post_init__(self):
        if not (self.tau_p > 0 and self.w_p > 0 and self.l_nl > 0):
            raise ValueError("tau_p, w_p and l_nl must all be positive")


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint tensor-product quadrature with refinement by doubling."""

    n_init: int = 16
    max_doublings: int = 3
    rel_tol: float = 0.01


SUPPORT_SIGMA = 5.0  # half-width of the idler box in pump-envelope sigmas


def pump_spectrum(kappa_p: dm.SpectralPoint, pump: PumpSpec):
    """Spectral amplitude of the pump at the entrance face.

    Normalized so the integral over (omega, kx, ky) equals 1, which is then
    the peak amplitude of the pulse in time-position space; the amplitude
    scale is absorbed into pump.l_nl.
    """
    pref = pump.w_p**2 * pump.tau_p / TWO_PI**1.5
    du = np.asarray(kappa_p.omega) - pump.omega_center
    return (pref * np.exp(-0.5 * pump.tau_p**2 * du**2)
            * np.exp(-0.5 * pump.w_p**2 * np.asarray(kappa_p.kx) ** 2)
            * np.exp(-0.5 * pump.w_p**2 * np.asarray(kappa_p.ky) ** 2))


def flux_closed_form(coeffs: pmm.LinearizedCoeffs, crystal: dm.CrystalSpec,
                     pump: PumpSpec):
    """Closed-form occupation on the matched surface from expansion coefficients
    (see phasematch.linearize), elementwise over array-valued coefficients.

    Exact Gaussian integral of the gaussianized quadrature integrand; the
    walk-off terms carry the 1/3 of the exp(-x^2/3) sinc^2 surrogate, so the
    two routes agree to quadrature tolerance.
    """
    L = crystal.length
    temporal = (L * coeffs.d_beta1 / pump.tau_p) ** 2
    spatial = L**2 * (coeffs.d_rho_px**2 + coeffs.d_rho_py**2) / pump.w_p**2
    bracket = 4.0 + (spatial + temporal) / 3.0
    return (pump.w_p**2 * pump.tau_p / (4.0 * np.pi**1.5)
            * (L / pump.l_nl) ** 2 / np.sqrt(bracket))


def _kappa_prime_axes(kappa: dm.SpectralPoint, pump: PumpSpec, n: int):
    """Midpoint nodes (broadcast over three axes) of the idler box around the
    pump support, and the cell volume times each ky' node's count.

    The squared pump envelope has standard deviations 1/(sqrt(2) tau_p) in
    frequency and 1/(sqrt(2) w_p) transversally; the box spans +-SUPPORT_SIGMA
    of those around the conjugate point of kappa.  At ky = 0 the integrand is
    even in ky', so only the ky' >= 0 nodes are kept, each counted twice but
    the ky' = 0 node of an odd n.
    """
    half_u = SUPPORT_SIGMA / (np.sqrt(2.0) * pump.tau_p)
    half_k = SUPPORT_SIGMA / (np.sqrt(2.0) * pump.w_p)
    if pump.omega_center - kappa.omega <= half_u:
        raise OutOfDispersionWindow(f"the idler box of the signal at omega="
                                    f"{kappa.omega:.6g} reaches omega' <= 0")

    def midpoints(center, half, m):
        h = 2.0 * half / m
        return center - half + (np.arange(m) + 0.5) * h, h

    wp_nodes, dw = midpoints(pump.omega_center - kappa.omega, half_u, n)
    kx_nodes, dkx = midpoints(-kappa.kx, half_k, n)
    ky_nodes, dky = midpoints(-kappa.ky, half_k, n)
    counts = np.ones(n)
    if kappa.ky == 0:
        ky_nodes = (np.arange(n // 2, n) + 0.5 - 0.5 * n) * dky
        counts = np.where(ky_nodes == 0.0, 1.0, 2.0)
    return (wp_nodes[:, None, None], kx_nodes[None, :, None], ky_nodes[None, None, :],
            dw * dkx * dky * counts)


def _quadrature(kappa: dm.SpectralPoint, pump: PumpSpec, quad: QuadratureSpec | None,
                factor, length: float):
    """Integral over the idler box of the squared pump amplitude times the
    phase-matching factor(w_i, kx_i, ky_i), a function of the broadcast idler
    nodes whose NaN values (evanescent idlers) count as zero.  At kappa.ky = 0
    it sees only ky_i >= 0, so it must be even in ky_i there.

    Midpoint rule, doubled until the Richardson-extrapolated value settles
    within quad.rel_tol; returns ((length / l_nl)^2 * integral, err_rel).
    """
    quad = quad or QuadratureSpec()

    def integral(n):
        w_i, kx_i, ky_i, cells = _kappa_prime_axes(kappa, pump, n)
        kappa_p = dm.SpectralPoint(kappa.omega + w_i, kappa.kx + kx_i, kappa.ky + ky_i)
        weight = pump_spectrum(kappa_p, pump) ** 2 * cells
        return float(np.nansum(weight * factor(w_i, kx_i, ky_i)))

    n = quad.n_init
    coarse = integral(n)
    for _ in range(quad.max_doublings):
        n *= 2
        fine = integral(n)
        extrap = fine + (fine - coarse) / 3.0
        scale = abs(extrap) if extrap != 0.0 else 1.0
        err = abs(fine - coarse) / (3.0 * scale)
        if err <= quad.rel_tol:
            return (length / pump.l_nl) ** 2 * extrap, err
        coarse = fine
    raise NotConverged(
        f"quadrature not within {quad.rel_tol:.2g} after {quad.max_doublings} doublings")


def flux_quadrature_exact(kappa: dm.SpectralPoint, crystal: dm.CrystalSpec,
                          pump: PumpSpec, quad: QuadratureSpec | None = None):
    """Exact-sinc^2 quadrature of the pair-generation integral at kappa;
    returns (flux, err_rel)."""
    L = crystal.length

    def sinc2(w_i, kx_i, ky_i):
        h = 0.5 * L * pmm.delta_k(kappa, dm.SpectralPoint(w_i, kx_i, ky_i), crystal)
        return np.divide(np.sin(h), h, out=np.ones_like(h), where=h != 0) ** 2

    return _quadrature(kappa, pump, quad, sinc2, L)


def flux_quadrature_gaussianized(kappa: dm.SpectralPoint, coeffs: pmm.LinearizedCoeffs,
                                 crystal: dm.CrystalSpec, pump: PumpSpec,
                                 quad: QuadratureSpec | None = None):
    """Quadrature with linearized mismatch and the Gaussian sinc^2 surrogate;
    returns (flux, err_rel).

    Expands around the matched point at kappa's frequency, whose scalar
    coefficients (one row of phasematch.linearize) are passed in.
    """
    L = crystal.length

    def surrogate(w_i, kx_i, ky_i):
        dk_lin = pmm.delta_k_linearized(coeffs, kappa.kx, kappa.ky, w_i, kx_i, ky_i)
        return np.exp(-(L * dk_lin) ** 2 / 12.0)

    return _quadrature(kappa, pump, quad, surrogate, L)


METHODS = ("closed_form", "exact", "gaussianized")


def spectrum_along_curve(lambda_grid_nm, crystal: dm.CrystalSpec, pump: PumpSpec,
                         method: str = "closed_form",
                         quad: QuadratureSpec | None = None):
    """Flux along the matched surface over a wavelength grid [nm].

    The surface and its expansion coefficients are solved once for the whole
    grid; the quadratures then run per matched wavelength.  Returns the
    arrays (alpha_ext [rad], flux, err_rel) over the grid, NaN where the
    surface has no point; err_rel is NaN throughout for closed_form.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {sorted(METHODS)}")
    lams = np.asarray(lambda_grid_nm, dtype=float)
    omega = TWO_PI * C_LIGHT / (lams * 1e-9)
    k0 = pmm.perfect_curve(omega, crystal)
    ok = np.flatnonzero(np.isfinite(k0))
    alpha, flux, err = np.full((3,) + lams.shape, np.nan)
    alpha[ok] = pmm.exterior_angle(omega[ok], k0[ok])
    if method != "exact":
        coeffs = pmm.linearize(omega[ok], k0[ok], crystal)
    if method == "closed_form":
        flux[ok] = flux_closed_form(coeffs, crystal, pump)
        return alpha, flux, err
    for j, i in enumerate(ok):
        kappa = dm.SpectralPoint(omega[i], k0[i], 0.0)
        if method == "exact":
            flux[i], err[i] = flux_quadrature_exact(kappa, crystal, pump, quad)
        else:
            flux[i], err[i] = flux_quadrature_gaussianized(kappa, coeffs.row(j), crystal,
                                                           pump, quad)
    return alpha, flux, err


def write_spectrum_csv(lams, alpha, flux, err, method: str, fileobj) -> None:
    """Emit spectrum_along_curve columns as CSV; NaN becomes an empty field."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["lambda_nm", "alpha_ext_deg", "flux", "method",
                     "quad_error_estimate"])
    for lam, a, f, e in zip(lams, alpha, flux, err):
        if np.isnan(f):
            writer.writerow([f"{lam:.6f}", "", "", method, ""])
        else:
            writer.writerow([f"{lam:.6f}", f"{np.rad2deg(a):.6f}", f"{f:.8e}", method,
                             "" if np.isnan(e) else f"{e:.3e}"])
