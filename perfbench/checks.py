"""Checks of parfluor outputs against computations made apart from the program.

Nothing here imports parfluor.  The dispersion of the generated crystal is
evaluated from the benchmark's own copy of the Sellmeier form, and the
statistics of the stochastic engine come from batch means over independently
seeded sub-ensembles.  Each checker returns a list of failure messages; an
empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

C_LIGHT = 299792458.0
TWO_PI = 2.0 * math.pi

# The crystal every workload runs on: BBO with a 400 nm pump, written out by
# the benchmark as the material document the program loads.
MATERIAL = {
    "name": "BBO-bench",
    "sellmeier_o": {"b0": 2.7405, "b1": 0.0184, "c1": 0.0179, "b2": 0.0155},
    "sellmeier_e": {"b0": 2.3730, "b1": 0.0128, "c1": 0.0156, "b2": 0.0044},
    "window_nm": [180.0, 2600.0],
}
PUMP_NM = 400.0
LENGTH_M = 2e-3


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# dispersion of the generated crystal


def index(omega, axis):
    """Sellmeier index n(omega) of the 'sellmeier_o' or 'sellmeier_e' set."""
    s = MATERIAL[axis]
    lam2 = (TWO_PI * C_LIGHT / np.asarray(omega, dtype=float) * 1e6) ** 2
    return np.sqrt(s["b0"] + s["b1"] / (lam2 - s["c1"]) - s["b2"] * lam2)


def kz_ordinary(omega, k_perp):
    """o-ray longitudinal wavevector at transverse wavevector k_perp."""
    return np.sqrt((index(omega, "sellmeier_o") * omega / C_LIGHT) ** 2 - k_perp**2)


def k_pump_axial(omega, theta_deg):
    """e-ray wavevector of a pump component travelling along z, at angle
    theta to the optic axis: 1/n^2 = cos^2/n_o^2 + sin^2/n_e^2."""
    ct, st = math.cos(math.radians(theta_deg)), math.sin(math.radians(theta_deg))
    n_o = index(omega, "sellmeier_o")
    n_e = index(omega, "sellmeier_e")
    return omega / C_LIGHT / np.sqrt(ct * ct / n_o**2 + st * st / n_e**2)


def omega_of_nm(lam_nm):
    return TWO_PI * C_LIGHT / (np.asarray(lam_nm, dtype=float) * 1e-9)


def mismatch(lam_nm, k0, theta_deg):
    """Delta k of the pair (w, k0) + (2 w0 - w, -k0) with the axial pump."""
    w_p = omega_of_nm(PUMP_NM)
    w = omega_of_nm(lam_nm)
    return k_pump_axial(w_p, theta_deg) - kz_ordinary(w, k0) - kz_ordinary(w_p - w, k0)


def k0_of_angle(lam_nm, alpha_deg):
    """Transverse wavevector [rad/m] of exterior angle alpha at lam_nm."""
    return math.sin(math.radians(float(alpha_deg))) * float(omega_of_nm(float(lam_nm))) / C_LIGHT


def k_max(lam_nm):
    """Light-cone bound of the lower-frequency photon of the pair."""
    w = omega_of_nm(lam_nm)
    w_lo = np.minimum(w, omega_of_nm(PUMP_NM) - w)
    return index(w_lo, "sellmeier_o") * w_lo / C_LIGHT


def d_beta1(lam_nm, k0, theta_deg):
    """Pump minus idler group slowness [s/m] at the matched point, by central
    differences of the functions above (relative step 1e-5)."""
    w_p = omega_of_nm(PUMP_NM)
    w_i = w_p - omega_of_nm(lam_nm)
    h_p, h_i = 1e-5 * w_p, 1e-5 * w_i
    beta_p = (k_pump_axial(w_p + h_p, theta_deg) - k_pump_axial(w_p - h_p, theta_deg)) / (2 * h_p)
    beta_i = (kz_ordinary(w_i + h_i, k0) - kz_ordinary(w_i - h_i, k0)) / (2 * h_i)
    return beta_p - beta_i


# ---------------------------------------------------------------------------
# statistics


def batch_means(totals):
    """Mean, standard error of the mean and relative standard error of a set
    of independent batch results."""
    x = np.asarray(totals, dtype=float)
    if x.size < 2:
        raise ValueError("batch means need at least two batches")
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(x.size))
    return mean, se, se / abs(mean)


def seconds_to_precision(wall_s, rel_se, target=0.05):
    """Wall time the same estimator needs to reach relative SE `target`,
    since the SE falls as the inverse square root of the work."""
    return wall_s * (rel_se / target) ** 2


def map_total(rows):
    """Total photons of a wigner.csv map: sum of bin flux times member modes."""
    return sum(float(r["flux"]) * int(r["n_modes"]) for r in rows if r["flux"])


# ---------------------------------------------------------------------------
# surface_scan


def check_phasematch(rows, theta_deg, lam_nm):
    """Every reported root solves Delta k = 0 to 0.01 rad over the crystal
    length, and its exterior angle is arcsin(c k0 / w); every empty row has
    no sign change of Delta k on a 2001-point scan of [0, k_max]."""
    errs = []
    if not np.allclose([float(r["lambda_nm"]) for r in rows], lam_nm, atol=1e-6):
        errs.append(f"theta {theta_deg}: phasematch wavelength grid differs from the request")
        return errs
    for r in rows:
        lam = float(r["lambda_nm"])
        if not r["k0_rad_per_m"]:
            ks = np.linspace(0.0, float(k_max(lam)), 2001)
            dk = mismatch(lam, ks, theta_deg)
            if np.any(np.sign(dk[:-1]) * np.sign(dk[1:]) < 0):
                errs.append(f"theta {theta_deg}: {lam:.3f} nm reported unmatched, "
                            "but Delta k changes sign")
            continue
        k0 = float(r["k0_rad_per_m"])
        dk = float(mismatch(lam, k0, theta_deg))
        if abs(dk) * LENGTH_M > 1e-2:
            errs.append(f"theta {theta_deg}: {lam:.3f} nm, Delta k L = {dk * LENGTH_M:.3g}")
        alpha = math.degrees(math.asin(C_LIGHT * k0 / float(omega_of_nm(lam))))
        if abs(alpha - float(r["alpha_ext_deg"])) > 1e-5:
            errs.append(f"theta {theta_deg}: {lam:.3f} nm, exterior angle "
                        f"{r['alpha_ext_deg']} != {alpha:.6f}")
    return errs


def check_pert_flux(closed, gauss, exact, matched, theta_deg, rel_tol):
    """closed_form and gaussianized agree to 3x the quadrature tolerance;
    every method gives a finite positive flux exactly where the surface has
    a point; the exact sinc^2 flux stays within a factor 2 of the closed form."""
    errs = []
    for name, rows in (("closed_form", closed), ("gaussianized", gauss), ("exact", exact)):
        has = [bool(r["flux"]) for r in rows]
        if has != matched:
            errs.append(f"theta {theta_deg}: {name} rows with flux differ from the matched rows")
            return errs
        for r in rows:
            if r["flux"] and not (math.isfinite(float(r["flux"])) and float(r["flux"]) > 0):
                errs.append(f"theta {theta_deg}: {name} flux {r['flux']} at {r['lambda_nm']} nm")
    for c, g, e in zip(closed, gauss, exact):
        if not c["flux"]:
            continue
        fc, fg, fe = float(c["flux"]), float(g["flux"]), float(e["flux"])
        if abs(fg / fc - 1.0) > 3 * rel_tol:
            errs.append(f"theta {theta_deg}: gaussianized/closed_form = {fg / fc:.4f} "
                        f"at {c['lambda_nm']} nm")
        if not 0.5 < fe / fc < 2.0:
            errs.append(f"theta {theta_deg}: exact/closed_form = {fe / fc:.4f} "
                        f"at {c['lambda_nm']} nm")
    return errs


def check_gvm_peak(closed, pm_rows, theta_deg, expect_nm, step_nm):
    """With a wide beam the closed-form spectrum peaks where |d_beta1|,
    computed here, is smallest, and that wavelength is the expected one."""
    lam = np.array([float(r["lambda_nm"]) for r in pm_rows])
    k0 = np.array([float(r["k0_rad_per_m"]) if r["k0_rad_per_m"] else np.nan
                   for r in pm_rows])
    flux = np.array([float(r["flux"]) if r["flux"] else np.nan for r in closed])
    if np.isnan(flux).all() or np.isnan(k0).all():
        return [f"theta {theta_deg}: no matched points near the group-velocity match"]
    lam_peak = lam[np.nanargmax(flux)]
    lam_gvm = lam[np.nanargmin(np.abs(d_beta1(lam, k0, theta_deg)))]
    errs = []
    if abs(lam_peak - lam_gvm) > 2 * step_nm:
        errs.append(f"theta {theta_deg}: closed-form peak {lam_peak:.1f} nm, "
                    f"|d_beta1| smallest at {lam_gvm:.1f} nm")
    if abs(lam_gvm - expect_nm) > 5.0:
        errs.append(f"theta {theta_deg}: group-velocity match at {lam_gvm:.1f} nm, "
                    f"expected {expect_nm:.0f} nm")
    return errs


# ---------------------------------------------------------------------------
# ensemble_precision


def band_totals(rows, n_slabs):
    """Signal-band (below 800 nm) and idler-band (above 800 nm) photon totals
    of one wigner.csv map whose occupied wavelength bins each hold one
    frequency slab of the grid.  The slab at the degenerate frequency and
    the unpaired highest-frequency slab (first occupied bin) are left out."""
    per_bin = {}
    for r in rows:
        n, photons = per_bin.get(float(r["lambda_nm"]), (0, 0.0))
        per_bin[float(r["lambda_nm"])] = (
            n + int(r["n_modes"]),
            photons + (float(r["flux"]) * int(r["n_modes"]) if r["flux"] else 0.0))
    centers = sorted(per_bin)
    occupied = [lam for lam in centers if per_bin[lam][0] > 0]
    if len(occupied) != n_slabs:
        raise ValueError(f"{len(occupied)} occupied wavelength bins for {n_slabs} "
                         "frequency slabs; bins are too wide to split the bands")
    half_width = 0.5 * (centers[-1] - centers[0]) / (len(centers) - 1)
    signal = idler = 0.0
    for lam in occupied[1:]:
        if abs(lam - 2 * PUMP_NM) <= half_width:
            continue
        if lam < 2 * PUMP_NM:
            signal += per_bin[lam][1]
        else:
            idler += per_bin[lam][1]
    return signal, idler


def check_band_balance(maps, n_slabs, n_se=3.0):
    """Photons are made in pairs, so the signal- and idler-band totals agree
    within n_se standard errors of their difference (batch means)."""
    try:
        diff = [s - i for s, i in (band_totals(rows, n_slabs) for rows in maps)]
    except ValueError as exc:
        return [f"band balance: {exc}"]
    mean = float(np.mean(diff))
    se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
    if abs(mean) > n_se * se:
        return [f"signal minus idler photons {mean:.4g} exceeds {n_se:g} SE ({se:.3g})"]
    return []
