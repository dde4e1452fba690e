"""Single-pair-regime photon flux of the fluorescence.

Three routes to the mean mode occupation n(kappa), cross-checking each other
(spectrum_along_curve's methods):

* closed_form: an estimate on the perfectly matched surface, from the
  Gaussian pump and the linearized mismatch, at every point of the surface
  table (phasematch.scan_curve);
* exact: a direct 3D quadrature of the pair-generation integral with the
  exact sinc^2 phase-matching factor, at any array of signals (the
  reference the others are judged against);
* gaussianized: the same quadrature over the surface table with the sinc^2
  replaced by its Gaussian surrogate exp(-(L dk)^2 / 12) and the mismatch
  linearized, whose analytic integral is the closed form above.

Both quadratures run through one midpoint driver: its idler box follows
each signal, so the pump components fall on one lattice per refinement
level, whose weight (and, for the exact route, k_z) is evaluated once for
all signals.

Fluxes are reported in mode-occupation units with the pump amplitude scale
absorbed into the nonlinear length; only ratios and shapes are meaningful,
and everything scales exactly as (L / L_NL)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dispersion as dm
from . import phasematch as pmm
from .dispersion import TWO_PI
from .errors import NotConverged, OutOfDispersionWindow


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump pulse at the crystal entrance face; its carrier 2*omega0
    is the crystal's pump_center_omega.

    tau_p : pulse duration [s] (1/e half-width of the field envelope)
    w_p : beam width [m] (1/e half-width of the field envelope)
    l_nl : nonlinear length [m] at the pulse's peak amplitude, which is 1;
        the gain parameter is L / l_nl, and np.inf turns the coupling off
    """

    tau_p: float
    w_p: float
    l_nl: float

    def __post_init__(self):
        if not (self.tau_p > 0 and self.w_p > 0 and self.l_nl > 0):
            raise ValueError("tau_p, w_p and l_nl must all be positive")


SUPPORT_SIGMA = 5.0  # half-width of the idler box in pump-envelope sigmas
# midpoint nodes per axis at the first level, and the doublings after it; n
# stays even, so the half box of a ky = 0 signal holds no ky' = 0 node
N_INIT = 16
MAX_DOUBLINGS = 3
QUAD_REL_TOL = 0.01  # default rel_tol: the Richardson error at which a signal stops doubling
# nodes the factor evaluates at once, which bounds each temporary of a chunk
# of signals to 128 kB: one signal's 32-node half box for exact, sixteen
# signals' 32-node (omega', kx') planes for gaussianized; on the benchmark's
# four cuts, chunks of 2^13 to 2^16 nodes took the same time to within the
# noise (about 5%), and 2^16 raised the peak memory by 0.9 MB
_CHUNK_NODES = 1 << 14


def pump_spectrum(kappa_p: dm.SpectralPoint, crystal: dm.CrystalSpec, pump: PumpSpec):
    """Spectral amplitude of the pump at the entrance face, around the crystal's carrier.

    Normalized so the integral over (omega, kx, ky) equals 1, which is then
    the peak amplitude of the pulse in time-position space; the amplitude
    scale is absorbed into pump.l_nl.
    """
    pref = pump.w_p**2 * pump.tau_p / TWO_PI**1.5
    du = np.asarray(kappa_p.omega) - crystal.pump_center_omega
    return (pref * np.exp(-0.5 * pump.tau_p**2 * du**2)
            * np.exp(-0.5 * pump.w_p**2 * np.asarray(kappa_p.kx) ** 2)
            * np.exp(-0.5 * pump.w_p**2 * np.asarray(kappa_p.ky) ** 2))


def flux_closed_form(coeffs: pmm.LinearizedCoeffs, crystal: dm.CrystalSpec,
                     pump: PumpSpec):
    """Closed-form occupation on the matched surface from expansion coefficients
    (see phasematch.linearize), elementwise over array-valued coefficients
    and NaN where they are.

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


def _half_widths(pump: PumpSpec):
    """Half-widths (half_u, half_k) of every idler box, SUPPORT_SIGMA standard
    deviations of the squared pump envelope: 1/(sqrt(2) tau_p) in frequency
    and 1/(sqrt(2) w_p) transversally."""
    return (SUPPORT_SIGMA / (np.sqrt(2.0) * pump.tau_p),
            SUPPORT_SIGMA / (np.sqrt(2.0) * pump.w_p))


def _idler_omega(omega, n, crystal: dm.CrystalSpec, pump: PumpSpec):
    """Frequencies omega' of the n midpoint nodes along the idler box of the
    signal at each frequency of the column omega, one row each."""
    half_u = _half_widths(pump)[0]
    t = np.arange(n) + 0.5
    return ((crystal.pump_center_omega - omega) - half_u
            + (t * (2.0 * half_u / n))[:, None, None])


def _columns(kappa: dm.SpectralPoint):
    """omega, kx and ky of the signals of kappa, broadcast together and
    flattened into columns of shape (signals, 1, 1, 1)."""
    return tuple(np.asarray(a, dtype=float).reshape(-1, 1, 1, 1)
                 for a in np.broadcast_arrays(kappa.omega, kappa.kx, kappa.ky))


def _quadrature(kappa: dm.SpectralPoint, crystal: dm.CrystalSpec, pump: PumpSpec,
                rel_tol: float, factor):
    """Integral over the idler box of each signal of kappa (array-valued; a
    scalar is a batch of one) of the squared pump amplitude times a
    phase-matching factor.

    Each box is centred on the conjugate point of its signal, so the pump
    component kappa + kappa' falls on one lattice, the pump carrier +- half_u by
    +-half_k by +-half_k, for every signal.  Per level the lattice, its weight
    and the idler nodes kappa' = kappa_p - kappa of the signals still doubling
    are built once, and factor(kappa_p), given the lattice broadcast over
    three axes, returns the function at(rows, signal, idler) that evaluates
    the factor of the signals at those flat indices of kappa (a 1-D array):
    the signal points and idler nodes carry a leading row axis, and the
    idler nodes broadcast over it and the three box axes.  It returns one
    row per index over the box, or over its (omega', kx') plane where the
    factor does not vary along ky', which is then summed against the weight
    summed over ky'.  Its NaN values (evanescent idlers) count as zero.  A
    signal with ky = 0 sees only the ky' > 0 half of its box, each node
    counted twice, so the factor must be even in ky' there.

    Midpoint rule, doubled for each signal until its Richardson-extrapolated
    value settles within rel_tol; returns ((L / l_nl)^2 * integral,
    err_rel), each of kappa's shape.
    """
    omega_p = crystal.pump_center_omega
    half_u, half_k = _half_widths(pump)
    shape = np.broadcast(kappa.omega, kappa.kx, kappa.ky).shape
    omega, kx, ky = _columns(kappa)
    near = omega_p - omega <= half_u
    if np.any(near):
        raise OutOfDispersionWindow(f"the idler box of the signal at omega="
                                    f"{omega[near][0]:.6g} reaches omega' <= 0")
    signals = dm.SpectralPoint(omega, kx, ky)
    on_axis = ky.ravel() == 0

    def level(n, rows):
        """Midpoint sums at n nodes per axis over the boxes of these rows."""
        dw, dk = 2.0 * half_u / n, 2.0 * half_k / n
        t = np.arange(n) + 0.5
        sums = np.empty(rows.size)
        for half in (True, False):
            sel = np.flatnonzero(on_axis[rows] == half)
            if not sel.size:
                continue
            kappa_p = dm.SpectralPoint(omega_p + (t - 0.5 * n)[:, None, None] * dw,
                                       ((t - 0.5 * n) * dk)[None, :, None],
                                       ((t[n // 2:] if half else t) - 0.5 * n)[None, None, :] * dk)
            weight = pump_spectrum(kappa_p, crystal, pump) ** 2 * (
                dw * dk * dk * (2.0 if half else 1.0))
            part = rows[sel]
            signal = signals[part]
            # a half box has ky = 0, so its ky' are the lattice's
            idler = dm.SpectralPoint(_idler_omega(signal.omega, n, crystal, pump),
                                     -signal.kx - half_k + (t * dk)[None, :, None],
                                     kappa_p.ky - signal.ky if half
                                     else -signal.ky - half_k + t * dk)
            at = factor(kappa_p)
            # one row first: it shows how many nodes the factor evaluates
            c, step, w = 0, 1, None
            while c < part.size:
                f = at(part[c:c + step], signal[c:c + step], idler[c:c + step])
                if w is None:
                    w = (weight.sum(axis=-1) if f.shape[-1] == 1 else weight).ravel()
                f = f.reshape(-1, w.size)
                # a dot product per row, as a stack of (1, nodes) @ (nodes, 1)
                # products: each row's sum is the same in any chunk
                row_sums = np.matmul(f[:, None, :], w[:, None])[:, 0, 0]
                nan = np.isnan(row_sums)
                if np.any(nan):
                    row_sums[nan] = np.nansum(f[nan] * w, axis=1)
                sums[sel[c:c + step]] = row_sums
                c += step
                step = max(1, _CHUNK_NODES // w.size)
        return sums

    flux, err = np.empty((2, omega.size))
    todo = np.arange(omega.size)
    n = N_INIT
    coarse = level(n, todo)
    for _ in range(MAX_DOUBLINGS):
        n *= 2
        fine = level(n, todo)
        extrap = fine + (fine - coarse) / 3.0
        scale = np.where(extrap != 0.0, np.abs(extrap), 1.0)
        rel = np.abs(fine - coarse) / (3.0 * scale)
        done = rel <= rel_tol
        flux[todo[done]] = (crystal.length / pump.l_nl) ** 2 * extrap[done]
        err[todo[done]] = rel[done]
        todo, coarse = todo[~done], fine[~done]
    if todo.size:
        raise NotConverged(
            f"quadrature not within {rel_tol:.2g} after {MAX_DOUBLINGS} "
            f"doublings at {todo.size} signal point(s), the first at "
            f"omega={omega.flat[todo[0]]:.6g}")
    return flux.reshape(shape)[()], err.reshape(shape)[()]


def flux_quadrature_exact(kappa: dm.SpectralPoint, crystal: dm.CrystalSpec,
                          pump: PumpSpec, rel_tol: float = QUAD_REL_TOL):
    """Exact-sinc^2 quadrature of the pair-generation integral at each signal
    of kappa; returns (flux, err_rel) of kappa's shape.

    The signals' k_z is evaluated once per call; per level, the pump's k_z
    on the lattice every signal shares and the idlers' squared wavenumbers,
    which vary along omega' only; per node, only the idler's k_z and the
    sinc^2."""
    half_length = 0.5 * crystal.length
    omega, kx, ky = _columns(kappa)
    kz_s = dm.kz_signal_grid(omega, kx, ky, crystal)

    def sinc2(kappa_p):
        kz_p = dm.kz_pump_grid(kappa_p.omega, kappa_p.kx, kappa_p.ky, crystal)
        k2_i = dm.k_ordinary(_idler_omega(omega, kappa_p.omega.shape[0], crystal, pump),
                             crystal) ** 2

        def at(rows, signal, idler):
            h = pmm.delta_k(signal, idler, crystal, kz_pump=kz_p, kz_signal=kz_s[rows],
                            k2_idler=k2_i[rows])
            h *= half_length
            h[h == 0.0] = 1e-20  # where sin(h) / h is exactly 1, as in np.sinc
            sinc = np.sin(h)
            sinc /= h
            return np.square(sinc, out=sinc)
        return at

    return _quadrature(kappa, crystal, pump, rel_tol, sinc2)


def flux_quadrature_gaussianized(coeffs: pmm.LinearizedCoeffs, crystal: dm.CrystalSpec,
                                 pump: PumpSpec, rel_tol: float = QUAD_REL_TOL):
    """Quadrature with linearized mismatch and the Gaussian sinc^2 surrogate
    at the matched points of a table of expansion coefficients
    (phasematch.scan_curve); returns (flux, err_rel) of the table's shape,
    NaN where k0 is.

    At a matched signal (w, k0, 0) the signal's walk-off terms and d_rho_py
    are zero, so the mismatch is d_beta1 (w' - w_idler) + d_rho_px (kx' + k0),
    constant along ky'.
    """
    table = np.broadcast_arrays(coeffs.k0, coeffs.omega_obs, coeffs.omega_idler,
                                coeffs.d_beta1, coeffs.d_rho_px)
    ok = np.isfinite(table[0])
    k0, omega, omega_idler, d_beta1, d_rho_px = (a[ok] for a in table)

    def surrogate(kappa_p):
        def at(rows, signal, idler):
            r = rows[:, None, None, None]
            x = (d_beta1[r] * (idler.omega - omega_idler[r])
                 + d_rho_px[r] * (idler.kx + k0[r]))
            x *= crystal.length
            np.square(x, out=x)
            x /= -12.0
            return np.exp(x, out=x)
        return at

    flux, err = np.full(ok.shape, np.nan), np.full(ok.shape, np.nan)
    flux[ok], err[ok] = _quadrature(dm.SpectralPoint(omega, k0, 0.0), crystal, pump,
                                    rel_tol, surrogate)
    return flux[()], err[()]


METHODS = ("closed_form", "exact", "gaussianized")


def spectrum_along_curve(lambda_grid_nm, crystal: dm.CrystalSpec, pump: PumpSpec,
                         method: str = "closed_form",
                         rel_tol: float = QUAD_REL_TOL):
    """Flux along the matched surface over a wavelength grid [nm].

    The surface and its expansion coefficients are tabulated once for the
    whole grid (phasematch.scan_curve), and a quadrature method is called
    once with all matched points.  Returns the arrays (alpha_ext [rad], flux,
    err_rel) over the grid, NaN where the surface has no point; err_rel is
    NaN throughout for closed_form, and alpha_ext also where the mode cannot
    refract out.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {sorted(METHODS)}")
    alpha, coeffs = pmm.scan_curve(lambda_grid_nm, crystal)
    if method == "gaussianized":
        return (alpha,) + flux_quadrature_gaussianized(coeffs, crystal, pump, rel_tol)
    flux, err = np.full((2,) + alpha.shape, np.nan)
    if method == "closed_form":
        return alpha, flux_closed_form(coeffs, crystal, pump), err
    ok = np.flatnonzero(np.isfinite(coeffs.k0))
    kappa = dm.SpectralPoint(coeffs.omega_obs[ok], coeffs.k0[ok], 0.0)
    flux[ok], err[ok] = flux_quadrature_exact(kappa, crystal, pump, rel_tol)
    return alpha, flux, err
