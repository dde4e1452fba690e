import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT

from parfluor import dispersion as dm
from parfluor.errors import EvanescentMode, OutOfDispersionWindow

from conftest import omega_of_nm


def pump_dispersion_residual(kz, omega, kx, ky, crystal: dm.CrystalSpec):
    """Relative residual of the e-ray dispersion relation at a candidate kz,
    stated in the optic-axis frame: u^2/n_e^2 + (v^2 + ky^2)/n_o^2 = w^2/c^2,
    u = sin(theta)*kz + cos(theta)*kx, v = cos(theta)*kz - sin(theta)*kx.

    Zero (to rounding) when kz solves the relation; used for root checks.
    """
    omega = np.asarray(omega, dtype=float)
    n_o = crystal.sellmeier_o.index_at_omega(omega)
    n_e = crystal.sellmeier_e.index_at_omega(omega)
    ct, st_ = np.cos(crystal.theta_cut), np.sin(crystal.theta_cut)
    u = st_ * kz + ct * kx
    v = ct * kz - st_ * kx
    w2c2 = (omega / C_LIGHT) ** 2
    return (u * u / n_e**2 + (v * v + ky * ky) / n_o**2 - w2c2) / w2c2


def sympy_sellmeier_kz_derivative(sellmeier, lam_nm):
    """Independent oracle: symbolic d(n_o(w)*w/c)/dw for the Sellmeier form."""
    import sympy as sp

    w = sp.Symbol("w", positive=True)
    lam_um = 2 * sp.pi * C_LIGHT / w * sp.Integer(10) ** 6
    n = sp.sqrt(sellmeier.b0 + sellmeier.b1 / (lam_um**2 - sellmeier.c1)
                - sellmeier.b2 * lam_um**2)
    kz = n * w / C_LIGHT
    expr = sp.diff(kz, w)
    return float(expr.subs(w, omega_of_nm(lam_nm)))


def test_speed_of_light_is_scipys():
    # the package states c itself, so that its perturbative commands need no scipy
    assert dm.C_LIGHT == C_LIGHT


@pytest.mark.parametrize("length, pump_wavelength", [
    (0.0, 400e-9), (np.nan, 400e-9), (2e-3, np.nan)])
def test_crystal_rejects_non_positive_and_nan(length, pump_wavelength):
    with pytest.raises(ValueError):
        dm.make_crystal(np.deg2rad(29.0), length, pump_wavelength)


class TestSellmeierIndices:
    def test_ordinary_frozen_values(self, bbo29):
        # direct evaluation of the shipped ordinary Sellmeier formula
        n_o = bbo29.sellmeier_o.index_at_omega
        assert n_o(omega_of_nm(400)) == pytest.approx(1.6934, abs=1e-3)
        assert n_o(omega_of_nm(800)) == pytest.approx(1.6614, abs=1e-3)

    def test_extraordinary_frozen_values(self, bbo29):
        assert bbo29.sellmeier_e.index_at_omega(omega_of_nm(400)) == pytest.approx(
            1.5687, abs=1e-3)
        assert bbo29.sellmeier_e.index_at_omega(omega_of_nm(800)) == pytest.approx(
            1.5462, abs=2e-3)

    def test_window_errors(self, bbo29):
        with pytest.raises(OutOfDispersionWindow):
            bbo29.sellmeier_o.index_at_omega(omega_of_nm(100))
        with pytest.raises(OutOfDispersionWindow):
            bbo29.sellmeier_e.index_at_omega(omega_of_nm(3000))
        # one wavelength beyond the window in an array of rows is named
        rows = omega_of_nm(np.array([[700.0, 800.0], [2700.0, 900.0]]))[..., None]
        with pytest.raises(OutOfDispersionWindow, match="2700.0 nm"):
            bbo29.sellmeier_o.index_at_omega(rows)

    def test_normal_dispersion_monotonic(self, bbo29):
        lam = np.linspace(500, 1200, 200)
        omegas = np.sort([omega_of_nm(l) for l in lam])
        n = bbo29.sellmeier_o.index_at_omega(omegas)
        assert np.all(np.diff(n) > 0)


class TestKzSignal:
    def test_collinear_identity(self, bbo29):
        w = omega_of_nm(800)
        kz = dm.kz_signal_grid(w, 0.0, 0.0, bbo29)
        assert kz == pytest.approx(float(bbo29.sellmeier_o.index_at_omega(w)) * w / C_LIGHT,
                                   rel=1e-14)

    def test_grazing_limit(self, bbo29):
        w = omega_of_nm(800)
        kmax = float(bbo29.sellmeier_o.index_at_omega(w)) * w / C_LIGHT
        kz = dm.kz_signal_grid(w, kmax, 0.0, bbo29)
        assert kz == pytest.approx(0.0, abs=1e-3)

    def test_light_cone_rounding_is_not_evanescent(self):
        # the squares of an array and of a scalar can differ in the last ulp,
        # so an array point exactly at k_max may round past the cone; this
        # crystal and frequency (the CLI's 400.0 nm pump) are such a case
        crystal = dm.make_crystal(np.deg2rad(29.0), 2e-3, 400.0 * 1e-9)
        w = crystal.pump_center_omega - omega_of_nm(648.4989993328886)
        kmax = float(crystal.sellmeier_o.index_at_omega(w)) * w / C_LIGHT
        kz = dm.kz_signal_grid(w, np.linspace(0.0, kmax, 512), 0.0, crystal)
        assert kz[-1] == 0.0

    def test_evanescent_raises(self, bbo29):
        w = omega_of_nm(800)
        kmax = float(bbo29.sellmeier_o.index_at_omega(w)) * w / C_LIGHT
        with pytest.raises(EvanescentMode):
            dm.kz_signal_grid(w, 1.001 * kmax, 0.0, bbo29)

    @given(st.floats(500, 1200), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
    @settings(max_examples=40, deadline=None)
    def test_parity_in_transverse_k(self, lam_nm, fx, fy):
        crystal = _session_crystal()
        w = omega_of_nm(lam_nm)
        kscale = w / C_LIGHT
        kz0 = dm.kz_signal_grid(w, fx * kscale, fy * kscale, crystal)
        assert dm.kz_signal_grid(w, -fx * kscale, fy * kscale, crystal) == kz0
        assert dm.kz_signal_grid(w, fx * kscale, -fy * kscale, crystal) == kz0


_CRYSTAL_CACHE = {}


def _session_crystal():
    if "bbo" not in _CRYSTAL_CACHE:
        _CRYSTAL_CACHE["bbo"] = dm.make_crystal(
            theta_cut=np.deg2rad(29.0), length=2e-3, pump_wavelength=400e-9)
    return _CRYSTAL_CACHE["bbo"]


class TestKzPump:
    def test_near_zero_cut_reduces_to_ordinary(self):
        crystal = dm.make_crystal(theta_cut=1e-9, length=2e-3, pump_wavelength=400e-9)
        w = omega_of_nm(400)
        kz = dm.kz_pump_grid(w, 0.0, 0.0, crystal)
        assert kz == pytest.approx(float(crystal.sellmeier_o.index_at_omega(w)) * w / C_LIGHT,
                                   rel=1e-9)

    def test_effective_index_at_29deg(self, bbo29):
        w = omega_of_nm(400)
        kz = dm.kz_pump_grid(w, 0.0, 0.0, bbo29)
        n_eff = kz * C_LIGHT / w
        assert n_eff == pytest.approx(1.6614, abs=2e-3)
        # degenerate collinear matching: effective pump index ~ n_o(800 nm)
        assert n_eff == pytest.approx(float(bbo29.sellmeier_o.index_at_omega(omega_of_nm(800))),
                                      abs=2e-3)

    def test_root_residual_random_points(self, bbo29):
        rng = np.random.default_rng(7)
        n = 10_000
        lam = rng.uniform(300, 2400, n)
        w = np.array([omega_of_nm(l) for l in lam])
        kscale = w / C_LIGHT
        kx = rng.uniform(-0.3, 0.3, n) * kscale
        ky = rng.uniform(-0.3, 0.3, n) * kscale
        kz = dm.kz_pump_grid(w, kx, ky, bbo29)
        res = pump_dispersion_residual(kz, w, kx, ky, bbo29)
        assert np.max(np.abs(res)) < 1e-9
        # the backward root solves the relation too; the forward one runs along +z
        assert np.all(kz > 0)

    def test_parity_in_ky(self, bbo29):
        w = omega_of_nm(400)
        k = 0.05 * w / C_LIGHT
        up = dm.kz_pump_grid(w, 0.1 * k, k, bbo29)
        dn = dm.kz_pump_grid(w, 0.1 * k, -k, bbo29)
        assert up == dn

    def test_forward_root_continuity_along_scan(self, bbo29):
        w = omega_of_nm(400)
        ks = np.linspace(-0.2, 0.2, 101) * w / C_LIGHT
        kz = dm.kz_pump_grid(w, ks, 0.0, bbo29)
        assert np.all(kz > 0)
        steps = np.abs(np.diff(kz))
        assert np.max(steps) < 5 * np.median(steps) + 1e3


def richardson(f, x0, h):
    """Central difference with one Richardson extrapolation step, O(h^4)."""
    def central(step):
        return (f(x0 + step) - f(x0 - step)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


class TestDerivatives:
    def test_signal_slowness_vs_symbolic(self, bbo29):
        for lam in (600, 800, 1000):
            beta1, _, _ = dm.kz_slopes("signal", omega_of_nm(lam), 0.0, 0.0, bbo29)
            sym = sympy_sellmeier_kz_derivative(bbo29.sellmeier_o, lam)
            assert beta1 == pytest.approx(sym, rel=1e-6)

    def test_pump_vs_signal_slowness_gap_at_degeneracy(self, bbo29):
        b1p = dm.kz_slopes("pump", omega_of_nm(400), 0.0, 0.0, bbo29)[0]
        b1s = dm.kz_slopes("signal", omega_of_nm(800), 0.0, 0.0, bbo29)[0]
        diff = b1p - b1s
        assert np.isfinite(diff)
        assert abs(diff) > 1e-11  # slowness curves do not cross at 800 nm

    def test_richardson_step_stability(self, bbo29):
        # closed-form slopes against Richardson-extrapolated central
        # differences at two steps, off axis in both transverse directions
        for ray, lam, kz in (("signal", 800, dm.kz_signal_grid),
                             ("pump", 400, dm.kz_pump_grid)):
            self._check_slopes_vs_richardson(ray, omega_of_nm(lam), kz, bbo29)

    @staticmethod
    def _check_slopes_vs_richardson(ray, w, kz, crystal):
        kx, ky = 2e5, 1e5
        beta1, rho_x, rho_y = dm.kz_slopes(ray, w, kx, ky, crystal)
        kscale = float(crystal.sellmeier_o.index_at_omega(w)) * w / C_LIGHT
        for rel_step in (1e-6, 2e-6):
            fd_w = richardson(lambda x: kz(x, kx, ky, crystal), w, rel_step * w)
            fd_x = richardson(lambda x: kz(w, x, ky, crystal), kx, rel_step * kscale)
            fd_y = richardson(lambda x: kz(w, kx, x, crystal), ky, rel_step * kscale)
            assert beta1 == pytest.approx(fd_w, rel=1e-8)
            assert rho_x == pytest.approx(fd_x, rel=1e-6)
            assert rho_y == pytest.approx(fd_y, rel=1e-6)

    def test_signal_walkoff_zero_on_axis(self, bbo29):
        _, rho_x, rho_y = dm.kz_slopes("signal", omega_of_nm(800), 0.0, 0.0, bbo29)
        assert rho_x == pytest.approx(0.0, abs=1e-12)
        assert rho_y == pytest.approx(0.0, abs=1e-12)

    def test_pump_walkoff_vs_implicit_differentiation(self, bbo29):
        # oracle: implicit differentiation of the e-ray relation at kx=ky=0
        w = omega_of_nm(400)
        n_o = float(bbo29.sellmeier_o.index_at_omega(w))
        n_e = float(bbo29.sellmeier_e.index_at_omega(w))
        A, B = 1.0 / n_e**2, 1.0 / n_o**2
        ct, st_ = np.cos(bbo29.theta_cut), np.sin(bbo29.theta_cut)
        oracle = -ct * st_ * (A - B) / (A * st_**2 + B * ct**2)
        rho_x = dm.kz_slopes("pump", w, 0.0, 0.0, bbo29)[1]
        assert rho_x == pytest.approx(oracle, rel=1e-12)
        assert -0.08 < rho_x < -0.06

    def test_pump_walkoff_y_zero(self, bbo29):
        rho_y = dm.kz_slopes("pump", omega_of_nm(400), 0.0, 0.0, bbo29)[2]
        assert rho_y == pytest.approx(0.0, abs=1e-12)


class TestMaterialLoading:
    def test_json_roundtrip(self, tmp_path, bbo29):
        doc = {
            "name": "BBO-copy",
            "sellmeier_o": {"b0": 2.7405, "b1": 0.0184, "c1": 0.0179, "b2": 0.0155},
            "sellmeier_e": {"b0": 2.3730, "b1": 0.0128, "c1": 0.0156, "b2": 0.0044},
            "window_nm": [180.0, 2600.0],
        }
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(doc))
        crystal = dm.make_crystal(np.deg2rad(29.0), 2e-3, 400e-9, material=path)
        w = omega_of_nm(800)
        assert crystal.sellmeier_o.index_at_omega(w) == bbo29.sellmeier_o.index_at_omega(w)

    def test_data_dir_env_lookup(self, tmp_path, monkeypatch):
        shipped = dm.load_material("bbo")
        (tmp_path / "envbbo.json").write_text(json.dumps({
            "name": "BBO-env",
            "sellmeier_o": {"b0": 2.7405, "b1": 0.0184, "c1": 0.0179, "b2": 0.0155},
            "sellmeier_e": {"b0": 2.3730, "b1": 0.0128, "c1": 0.0156, "b2": 0.0044},
        }))
        monkeypatch.setenv(dm.DATA_DIR_ENV, str(tmp_path))
        assert dm.load_material("envbbo")["name"] == "BBO-env"
        # names absent from the directory fall through to the shipped data
        assert dm.load_material("bbo") == shipped
        monkeypatch.delenv(dm.DATA_DIR_ENV)
        with pytest.raises(FileNotFoundError):
            dm.load_material("envbbo")

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "sellmeier_o": {}}))
        with pytest.raises(KeyError):
            dm.load_material(path)
