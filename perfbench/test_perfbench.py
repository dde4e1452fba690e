"""Fast tests of the benchmark's own checkers, statistics and tracer."""

import math
import types

import numpy as np
import pytest

import checks
import tracer


def matched_k0(lam_nm, theta_deg):
    """Root of the benchmark's own mismatch by bisection, or None."""
    lo, hi = 0.0, float(checks.k_max(lam_nm))
    ks = np.linspace(lo, hi, 2001)
    dk = checks.mismatch(lam_nm, ks, theta_deg)
    change = np.flatnonzero(np.sign(dk[:-1]) * np.sign(dk[1:]) < 0)
    if not change.size:
        return None
    lo, hi = ks[change[0]], ks[change[0] + 1]
    f_lo = checks.mismatch(lam_nm, lo, theta_deg)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = checks.mismatch(lam_nm, mid, theta_deg)
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pm_rows(lams, theta_deg):
    rows = []
    for lam in lams:
        k0 = matched_k0(lam, theta_deg)
        if k0 is None:
            rows.append({"lambda_nm": f"{lam:.6f}", "k0_rad_per_m": "", "alpha_ext_deg": ""})
            continue
        alpha = math.degrees(math.asin(checks.C_LIGHT * k0 / float(checks.omega_of_nm(lam))))
        rows.append({"lambda_nm": f"{lam:.6f}", "k0_rad_per_m": f"{k0:.6e}",
                     "alpha_ext_deg": f"{alpha:.6f}"})
    return rows


# ---------------------------------------------------------------------------
# statistics


def test_batch_means():
    mean, se, rel = checks.batch_means([9.0, 11.0, 10.0, 10.0])
    assert mean == 10.0
    assert se == pytest.approx(math.sqrt(2.0 / 3.0) / 2.0)
    assert rel == pytest.approx(se / 10.0)
    with pytest.raises(ValueError):
        checks.batch_means([1.0])


def test_seconds_to_precision_scales_with_variance():
    assert checks.seconds_to_precision(3.0, 0.05) == pytest.approx(3.0)
    assert checks.seconds_to_precision(3.0, 0.1) == pytest.approx(12.0)
    # the same ensemble run twice as long halves the variance of the mean:
    # the time to the target precision does not change
    assert checks.seconds_to_precision(6.0, 0.1 / math.sqrt(2)) == pytest.approx(12.0)


def test_map_total_skips_empty_bins():
    rows = [{"flux": "0.5", "n_modes": "4"}, {"flux": "", "n_modes": "0"},
            {"flux": "-0.25", "n_modes": "2"}]
    assert checks.map_total(rows) == pytest.approx(1.5)


def band_map(photons_by_lam, n_empty=2):
    """wigner.csv-like rows: one alpha bin per wavelength bin."""
    lams = sorted(photons_by_lam)
    step = (lams[1] - lams[0]) / (n_empty + 1)
    centers = np.arange(lams[0], lams[-1] + step / 2, step)
    rows = []
    for c in centers:
        hit = [lam for lam in lams if abs(lam - c) < step / 2]
        photons = photons_by_lam[hit[0]] if hit else None
        rows.append({"lambda_nm": f"{c:.6f}", "alpha_deg": "0.1",
                     "flux": "" if photons is None else repr(photons / 10.0),
                     "n_modes": "10" if hit else "0"})
    return rows


def test_band_totals_leave_out_degenerate_and_unpaired_slabs():
    photons = {780.0: 1000.0, 790.0: 2.0, 800.0: 5.0, 810.0: 3.0, 820.0: 7.0}
    signal, idler = checks.band_totals(band_map(photons), n_slabs=5)
    assert signal == pytest.approx(2.0)
    assert idler == pytest.approx(10.0)
    with pytest.raises(ValueError):
        checks.band_totals(band_map(photons), n_slabs=6)


def test_band_balance():
    rng = np.random.default_rng(0)
    balanced, skewed = [], []
    for _ in range(8):
        s, noise = 100.0 + rng.normal(0, 5), rng.normal(0, 1)
        balanced.append(band_map({780.0: 0.0, 790.0: s, 800.0: 1.0, 810.0: s + noise}))
        skewed.append(band_map({780.0: 0.0, 790.0: s, 800.0: 1.0, 810.0: 1.3 * s + noise}))
    assert checks.check_band_balance(balanced, 4) == []
    assert checks.check_band_balance(skewed, 4)


# ---------------------------------------------------------------------------
# surface_scan checkers


def test_phasematch_checker_accepts_roots_and_flags_errors():
    lams = np.linspace(700.0, 900.0, 9)
    rows = pm_rows(lams, 29.0)
    assert any(not r["k0_rad_per_m"] for r in rows)  # near-degenerate gap
    assert checks.check_phasematch(rows, 29.0, lams) == []

    moved = [dict(r) for r in rows]
    i = next(i for i, r in enumerate(moved) if r["k0_rad_per_m"])
    moved[i]["k0_rad_per_m"] = f"{float(moved[i]['k0_rad_per_m']) * 1.01:.6e}"
    assert checks.check_phasematch(moved, 29.0, lams)

    dropped = [dict(r) for r in rows]
    dropped[i].update(k0_rad_per_m="", alpha_ext_deg="")
    assert checks.check_phasematch(dropped, 29.0, lams)

    assert checks.check_phasematch(rows, 29.0, lams + 1.0)


def test_pert_flux_checker():
    def rows(fluxes):
        return [{"lambda_nm": str(i), "flux": "" if f is None else repr(f)}
                for i, f in enumerate(fluxes)]
    closed = [1.0, None, 2.0]
    matched = [True, False, True]
    assert checks.check_pert_flux(rows(closed), rows([1.01, None, 1.99]),
                                  rows([1.3, None, 1.6]), matched, 29.0, 0.01) == []
    assert checks.check_pert_flux(rows(closed), rows([1.1, None, 2.0]),
                                  rows([1.0, None, 2.0]), matched, 29.0, 0.01)
    assert checks.check_pert_flux(rows(closed), rows(closed),
                                  rows([1.0, None, 5.0]), matched, 29.0, 0.01)
    assert checks.check_pert_flux(rows(closed), rows(closed),
                                  rows([1.0, 1.0, 2.0]), matched, 29.0, 0.01)


def test_gvm_checker():
    lams = np.linspace(1000.0, 1050.0, 51)
    pm = pm_rows(lams, 40.0)
    k0 = np.array([float(r["k0_rad_per_m"]) for r in pm])
    db1 = checks.d_beta1(lams, k0, 40.0)
    # closed form with a wide beam: flux falls with |L d_beta1 / tau|
    flux = 1.0 / np.sqrt(4.0 + (2e-3 * db1 / 60e-15) ** 2 / 3.0)
    closed = [{"flux": str(float(f))} for f in flux]
    assert checks.check_gvm_peak(closed, pm, 40.0, 1025.0, 1.0) == []
    shifted = [{"flux": str(float(f))} for f in np.roll(flux, 10)]
    assert checks.check_gvm_peak(shifted, pm, 40.0, 1025.0, 1.0)
    assert checks.check_gvm_peak(closed, pm, 40.0, 1040.0, 1.0)


# ---------------------------------------------------------------------------
# tracer


def test_self_times_and_layer_metrics():
    spans = [
        ["phasematch.perfect_curve", 0.0, 1.0, -1, 0],
        ["dispersion.kz_signal_grid", 0.1, 0.3, 0, 5],
        ["dispersion.kz_pump_grid", 0.4, 0.5, 0, 3],
        ["wigner.calibrate_gain", 2.0, 4.0, -1, 6],
        ["wigner.to_position", 2.5, 3.0, 3, 100],
    ]
    assert tracer.self_times(spans) == pytest.approx([0.7, 0.2, 0.1, 1.5, 0.5])
    m = tracer.layer_metrics(spans)
    assert m["dispersion.kz_calls"] == 2
    assert m["dispersion.kz_evals"] == 8
    assert m["dispersion.kz_s"] == pytest.approx(0.3)
    assert m["phasematch.root_s"] == pytest.approx(0.7)
    assert m["wigner.calib_s"] == pytest.approx(2.0)
    assert m["wigner.step_other_s"] == pytest.approx(1.5)
    assert m["wigner.calib_probes"] == 6
    assert m["wigner.fft_bytes"] == 100
    assert m["perturbative.quad_points"] == 0


def test_tracer_wraps_module_attributes_tables_and_skips_missing():
    disp = types.ModuleType("dispersion")
    disp.kz_signal_grid = lambda omega: np.ones(3) * omega
    disp.TABLE = {"signal": disp.kz_signal_grid}

    def kz_pump_grid(omega):
        return disp.kz_signal_grid(omega)  # calls through the module attribute

    disp.kz_pump_grid = kz_pump_grid
    package = types.SimpleNamespace(dispersion=disp)
    original = disp.kz_signal_grid

    t = tracer.Tracer(package)
    t.install()
    disp.kz_pump_grid(2.0)
    disp.TABLE["signal"](1.0)
    t.uninstall()
    disp.kz_signal_grid(1.0)  # after uninstall: not recorded

    assert disp.kz_signal_grid is original and disp.TABLE["signal"] is original
    spans = t.take()
    assert [s[0] for s in spans] == ["dispersion.kz_pump_grid",
                                     "dispersion.kz_signal_grid",
                                     "dispersion.kz_signal_grid"]
    assert spans[1][3] == 0 and spans[2][3] == -1
    assert [s[4] for s in spans] == [3, 3, 3]
    assert "dispersion.d_kz_d_omega" in t.missing and "wigner.to_position" in t.missing
    assert t.take() == []
