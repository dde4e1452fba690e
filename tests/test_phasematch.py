import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT

from parfluor import dispersion as dm
from parfluor import phasematch as pm
from parfluor.errors import EvanescentMode, OutOfDispersionWindow

from conftest import omega_of_nm


class TestDeltaK:
    def test_symmetric_in_arguments(self, bbo313):
        a = dm.SpectralPoint(omega_of_nm(700), 2e5, -1e5)
        b = dm.SpectralPoint(omega_of_nm(950), -3e5, 2e5)
        assert pm.delta_k(a, b, bbo313) == pm.delta_k(b, a, bbo313)

    def test_degenerate_collinear_at_29(self, bbo29):
        kappa = dm.SpectralPoint(omega_of_nm(800))
        dk = pm.delta_k(kappa, kappa, bbo29)
        assert abs(dk) < 1e3  # |dk * L| well below pi for L = 2 mm

    def test_far_from_matching_at_40(self, bbo40):
        kappa = dm.SpectralPoint(omega_of_nm(800))
        dk = pm.delta_k(kappa, kappa, bbo40)
        # collinear degenerate pairs are far off matching: |dk*L| >> pi, and
        # the noncollinear solution at k0 > 0 requires the collinear mismatch
        # to be negative (dk increases with transverse wavevector)
        assert dk < 0
        assert abs(dk) * bbo40.length > 100 * np.pi

    def test_parity_in_ky(self, bbo313):
        a = dm.SpectralPoint(omega_of_nm(700), 2e5, 4e5)
        b = dm.SpectralPoint(omega_of_nm(950), -2e5, -4e5)
        am = dm.SpectralPoint(omega_of_nm(700), 2e5, -4e5)
        bm = dm.SpectralPoint(omega_of_nm(950), -2e5, 4e5)
        assert pm.delta_k(a, b, bbo313) == pm.delta_k(am, bm, bbo313)

    def test_evanescent_idler_is_nan(self, bbo313):
        # the exact quadrature's idler box can reach past the light cone,
        # where the idler carries no pair; an evanescent signal is an error
        signal = dm.SpectralPoint(omega_of_nm(700), 2e5, 0.0)
        idlers = dm.SpectralPoint(omega_of_nm(950), np.array([-2e5, -2e7]), 0.0)
        dk = pm.delta_k(signal, idlers, bbo313)
        assert np.isfinite(dk[0]) and np.isnan(dk[1])
        with pytest.raises(EvanescentMode):
            pm.delta_k(idlers, signal, bbo313)


def linearize_at(omega, crystal):
    return pm.linearize(omega, pm.perfect_curve(omega, crystal), crystal)


def linear_mismatch(coeffs, kappa_prime, crystal):
    """First-order mismatch of the matched signal (omega_obs, k0, 0) and an
    idler kappa', from all three expansion coefficients."""
    omega_idler = crystal.pump_center_omega - coeffs.omega_obs
    return float(coeffs.d_beta1 * (kappa_prime.omega - omega_idler)
                 + coeffs.d_rho_px * (kappa_prime.kx + coeffs.k0)
                 + coeffs.d_rho_py * kappa_prime.ky)


class TestPerfectCurve:
    def test_degenerate_cut_touches_axis(self):
        # crystal cut exactly at the collinear degeneracy angle
        crystal = dm.make_crystal(_degenerate_angle() + 1e-8, 2e-3, 400e-9)
        k0 = pm.perfect_curve(omega_of_nm(800), crystal)
        assert np.isfinite(k0)
        assert k0 < 1e4

    def test_40deg_exterior_angle_range(self, bbo40):
        k0 = pm.perfect_curve(omega_of_nm(800), bbo40)
        alpha = np.rad2deg(pm.exterior_angle(omega_of_nm(800), k0))
        assert 15 < alpha < 25

    def test_gap_is_reported_as_none(self, bbo29):
        # theta = 29.00 deg sits just below degeneracy: no matched point at 800
        assert np.isnan(pm.perfect_curve(omega_of_nm(800), bbo29))

    def test_residual_of_returned_roots(self, bbo313):
        omega = omega_of_nm(np.linspace(520, 1200, 15))
        k0 = pm.perfect_curve(omega, bbo313)
        assert k0.shape == omega.shape
        assert np.all(np.isfinite(k0))
        kappa = dm.SpectralPoint(omega, k0, 0.0)
        idler = dm.SpectralPoint(bbo313.pump_center_omega - omega, -k0, 0.0)
        assert np.max(np.abs(pm.delta_k(kappa, idler, bbo313))) < 1e-3

    def test_array_solve_matches_one_wavelength_at_a_time(self, bbo29):
        # the 29 deg cut has a gap around 800 nm, so both kinds of rows occur
        omega = omega_of_nm(np.linspace(500, 1200, 57))
        k0 = pm.perfect_curve(omega, bbo29)
        single = np.array([pm.perfect_curve(w, bbo29) for w in omega])
        assert np.isnan(k0).any() and np.isfinite(k0).any()
        np.testing.assert_array_equal(np.isnan(k0), np.isnan(single))
        np.testing.assert_array_equal(k0, single)

    def test_exact_degenerate_cut_is_on_the_axis(self):
        # a + b - kz_p reads a few ulp below zero here; the collinear pair is
        # matched to within rounding, so k0 is 0 and not NaN
        crystal = dm.make_crystal(_degenerate_angle(), 2e-3, 400e-9)
        assert pm.perfect_curve(omega_of_nm(800), crystal) == 0.0

    @given(st.floats(29.0, 40.0), st.floats(500.0, 1200.0))
    @settings(max_examples=40, deadline=None)
    def test_mismatch_on_ring_rises_with_k(self, theta, lam):
        # the premise of the closed form: dk has at most one root in k
        crystal = dm.make_crystal(np.deg2rad(theta), 2e-3, 400e-9)
        w = omega_of_nm(lam)
        dk = _ring_mismatch(w, np.linspace(0.0, _k_max(w, crystal), 513), crystal)
        assert np.all(np.diff(dk) >= 0.0)

    @pytest.mark.parametrize("theta", [29.0, 31.3, 35.0, 40.0])
    def test_roots_and_gaps_on_a_fine_grid(self, theta):
        crystal = dm.make_crystal(np.deg2rad(theta), 2e-3, 400e-9)
        omega = omega_of_nm(np.linspace(500, 1200, 1401))
        k0 = pm.perfect_curve(omega, crystal)
        ok = np.isfinite(k0)
        assert np.max(np.abs(_ring_mismatch(omega[ok], k0[ok], crystal))) <= 1e-3
        # every unmatched row keeps one sign of dk from the axis to k_max
        gap = omega[~ok]
        assert np.all(_ring_mismatch(gap, 0.0, crystal)
                      * _ring_mismatch(gap, _k_max(gap, crystal), crystal) > 0.0)

    def test_fault_wavelength_scans_to_the_light_cone(self):
        # k_max at this wavelength once rounded past the idler light cone
        crystal = dm.make_crystal(np.deg2rad(29.0), 2e-3, 400.0 * 1e-9)
        assert np.isfinite(pm.perfect_curve(omega_of_nm(648.4989993328886), crystal))

    @pytest.mark.parametrize("ratio", [1.0, 4.0 / 3.0])
    def test_signal_not_longer_than_pump_raises(self, bbo29, ratio):
        # at and above the pump frequency a signal leaves no idler frequency;
        # one such row fails the whole solve
        omega = np.array([omega_of_nm(800.0), ratio * bbo29.pump_center_omega])
        with pytest.raises(OutOfDispersionWindow, match="not longer than the pump"):
            pm.perfect_curve(omega, bbo29)


class TestExteriorAngle:
    def test_trivial_values(self):
        assert pm.exterior_angle(omega_of_nm(800), 0.0) == 0.0
        w = omega_of_nm(800)
        assert pm.exterior_angle(w, 0.5 * w / C_LIGHT) == pytest.approx(np.pi / 6)

    def test_total_internal_reflection(self):
        # beyond the vacuum light cone the mode cannot refract out: NaN
        w = omega_of_nm(800)
        assert np.isnan(pm.exterior_angle(w, 1.01 * w / C_LIGHT))


class TestLinearize:
    def test_y_coefficients_vanish(self, bbo313):
        coeffs = linearize_at(omega_of_nm(700), bbo313)
        assert coeffs.d_rho_py == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [29.0, 31.3, 35.0, 40.0])
    def test_y_walkoffs_exactly_zero_on_surface(self, theta):
        # the quadratures' half idler box relies on these being exact zeros
        crystal = dm.make_crystal(np.deg2rad(theta), 2e-3, 400e-9)
        omega = omega_of_nm(np.linspace(500, 1200, 141))
        k0 = pm.perfect_curve(omega, crystal)
        ok = np.isfinite(k0)
        coeffs = pm.linearize(omega[ok], k0[ok], crystal)
        assert ok.sum() > 10
        assert np.all(coeffs.d_rho_py == 0.0)

    def test_nan_k0_gives_nan_coefficients(self, bbo29):
        # inside the theta=29.0 degeneracy gap the matched point is absent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = linearize_at(omega_of_nm(800), bbo29)
        assert np.isnan(coeffs.k0)
        for name in ("d_beta1", "d_rho_px", "d_rho_py"):
            assert np.isnan(getattr(coeffs, name)), name
        assert coeffs.omega_obs == omega_of_nm(800)

    def test_grid_with_gap_matches_matched_subset_bitwise(self, bbo29):
        omega = omega_of_nm(np.linspace(500, 1200, 141))
        k0 = pm.perfect_curve(omega, bbo29)
        ok = np.isfinite(k0)
        assert 0 < ok.sum() < ok.size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = pm.linearize(omega, k0, bbo29)
        subset = pm.linearize(omega[ok], k0[ok], bbo29)
        for name in ("k0", "d_beta1", "d_rho_px", "d_rho_py"):
            np.testing.assert_array_equal(getattr(full, name)[ok], getattr(subset, name))
            assert np.all(np.isnan(getattr(full, name)[~ok])), name

    def test_rows_match_scalar_linearization(self, bbo313):
        omega = omega_of_nm(np.linspace(550, 1150, 9))
        k0 = pm.perfect_curve(omega, bbo313)
        coeffs = pm.linearize(omega, k0, bbo313)
        for j, w in enumerate(omega):
            single = pm.linearize(w, k0[j], bbo313)
            for name in ("k0", "d_beta1", "d_rho_px", "d_rho_py"):
                assert getattr(coeffs, name)[j] == pytest.approx(
                    getattr(single, name), rel=1e-12, abs=1e-300)

    def test_second_order_accuracy(self, bbo313):
        coeffs = linearize_at(omega_of_nm(700), bbo313)
        w0, k0 = coeffs.omega_obs, coeffs.k0
        w0p = bbo313.pump_center_omega - w0
        # the idler moves off its matched point, and the pump with it
        signal = dm.SpectralPoint(w0, k0, 0.0)
        rng = np.random.default_rng(3)
        for _ in range(12):
            d = rng.uniform(-1, 1, size=3) * 0.01
            kappap = dm.SpectralPoint(w0p * (1 + 0.01 * d[0]), -k0 * (1 + d[1]),
                                      k0 * d[2])
            exact = pm.delta_k(signal, kappap, bbo313)
            lin = linear_mismatch(coeffs, kappap, bbo313)
            assert abs(lin - exact) < 0.05 * abs(exact)

    def test_halving_perturbation_quarters_error(self, bbo313):
        coeffs = linearize_at(omega_of_nm(760), bbo313)
        w0, k0 = coeffs.omega_obs, coeffs.k0
        w0p = bbo313.pump_center_omega - w0
        rng = np.random.default_rng(11)
        direction = rng.uniform(-1, 1, size=3)
        signal = dm.SpectralPoint(w0, k0, 0.0)

        def err(scale):
            d = direction * scale
            kappap = dm.SpectralPoint(w0p * (1 + 0.01 * d[0]), -k0 * (1 + d[1]),
                                      k0 * d[2])
            exact = pm.delta_k(signal, kappap, bbo313)
            lin = linear_mismatch(coeffs, kappap, bbo313)
            return abs(lin - exact)

        e1, e2 = err(0.01), err(0.005)
        assert e2 == pytest.approx(e1 / 4, rel=0.2)

    def test_dk0_vanishes_on_the_surface_only(self, bbo313):
        omega = omega_of_nm(np.linspace(550, 1150, 13))
        k0 = pm.perfect_curve(omega, bbo313)
        on = pm.linearize(omega, k0, bbo313).dk0
        assert np.all(np.abs(on) * bbo313.length < 1e-6)
        off = pm.linearize(omega, 0.98 * k0, bbo313).dk0
        assert np.all(np.abs(off) * bbo313.length > 1.0)

    def test_off_surface_expansion_halving_quarters_error(self, bbo313):
        # around the pair of an off-ring, off-axis signal and its conjugate
        # idler: dk0 plus the linear terms in the idler's offsets
        omega = omega_of_nm(700)
        k0 = float(pm.perfect_curve(omega, bbo313))
        kx, ky = 0.98 * k0 * np.cos(2.0), 0.98 * k0 * np.sin(2.0)
        coeffs = pm.linearize(omega, kx, bbo313, ky=ky)
        omega_idler = bbo313.pump_center_omega - coeffs.omega_obs
        signal = dm.SpectralPoint(omega, kx, ky)
        direction = np.random.default_rng(5).uniform(-1, 1, size=3)

        def err(scale):
            du, dkx, dky = direction * scale * np.array([0.01 * omega_idler, k0, k0])
            idler = dm.SpectralPoint(omega_idler + du, -kx + dkx, -ky + dky)
            lin = (coeffs.dk0 + coeffs.d_beta1 * du + coeffs.d_rho_px * dkx
                   + coeffs.d_rho_py * dky)
            return abs(lin - pm.delta_k(signal, idler, bbo313))

        e1, e2 = err(0.01), err(0.005)
        assert e2 == pytest.approx(e1 / 4, rel=0.2)

    def test_grid_modes_match_scalar_linearization(self, bbo29):
        # axes that broadcast to a grid of modes, as the Wigner engine's
        omega = omega_of_nm(np.array([760.0, 800.0, 840.0]))[:, None, None]
        kx = np.array([-3e4, 0.0, 5e4])[None, :, None]
        ky = np.array([0.0, 2e4])[None, None, :]
        coeffs = pm.linearize(omega, kx, bbo29, ky=ky)
        assert coeffs.d_beta1.shape == coeffs.dk0.shape == (3, 3, 2)
        for i, j, k in np.ndindex(3, 3, 2):
            single = pm.linearize(omega[i, 0, 0], kx[0, j, 0], bbo29, ky=ky[0, 0, k])
            for name in ("dk0", "d_beta1", "d_rho_px", "d_rho_py"):
                assert getattr(coeffs, name)[i, j, k] == pytest.approx(
                    getattr(single, name), rel=1e-12, abs=1e-300), name

    def test_evanescent_idler_gives_nan_coefficients(self, bbo313):
        # a 650 nm signal whose |k_perp| lies past the idler's o-ray
        # wavenumber but inside its own: no EvanescentMode is raised
        omega = omega_of_nm(650)
        k_idler = float(dm.k_ordinary(bbo313.pump_center_omega - omega, bbo313))
        kx = np.array([0.5, 0.6]) * k_idler
        ky = np.array([0.0, 0.9]) * k_idler
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = pm.linearize(omega, kx, bbo313, ky=ky)
        for name in ("dk0", "d_beta1", "d_rho_px", "d_rho_py"):
            value = getattr(coeffs, name)
            assert np.isfinite(value[0]) and np.isnan(value[1]), name


class TestScanCurve:
    def test_grid_shaped_table(self, bbo29):
        lams = np.linspace(500, 1200, 41)
        alpha, coeffs = pm.scan_curve(lams, bbo29)
        assert alpha.shape == coeffs.k0.shape == coeffs.d_beta1.shape == (41,)
        omega = omega_of_nm(lams)
        np.testing.assert_array_equal(coeffs.omega_obs, omega)
        k0 = pm.perfect_curve(omega, bbo29)
        np.testing.assert_array_equal(coeffs.k0, k0)
        assert np.isnan(k0).any()  # the 29 deg gap
        np.testing.assert_array_equal(alpha, pm.exterior_angle(omega, k0))

    def test_angle_ordering_by_cut(self, bbo29, bbo313, bbo40):
        crystal35 = dm.make_crystal(np.deg2rad(35.0), 2e-3, 400e-9)
        alphas = []
        for crystal in (bbo29, bbo313, crystal35, bbo40):
            k0 = pm.perfect_curve(omega_of_nm(700), crystal)
            alphas.append(pm.exterior_angle(omega_of_nm(700), k0))
        assert alphas == sorted(alphas)

    def test_continuity_of_curve(self, bbo313):
        k0 = pm.scan_curve(np.linspace(550, 1150, 121), bbo313)[1].k0
        k0s = k0[np.isfinite(k0)]
        jumps = np.abs(np.diff(k0s))
        # each jump bounded by 3x the local slope estimate from its neighbors
        for i in range(1, len(jumps) - 1):
            local = max(jumps[i - 1], jumps[i + 1])
            assert jumps[i] < 3 * local + 1e-2


def _degenerate_angle():
    """Oracle: cut angle where the effective pump index equals n_o at the
    degenerate wavelength, from the index mixing formula directly."""
    crystal = dm.make_crystal(np.deg2rad(29.0), 2e-3, 400e-9)
    w_p, w_s = omega_of_nm(400), omega_of_nm(800)
    n_os = float(crystal.sellmeier_o.index_at_omega(w_s))
    n_op = float(crystal.sellmeier_o.index_at_omega(w_p))
    n_ep = float(crystal.sellmeier_e.index_at_omega(w_p))
    s2 = (n_os**-2 - n_op**-2) / (n_ep**-2 - n_op**-2)
    return float(np.arcsin(np.sqrt(s2)))


def _ring_mismatch(omega, k, crystal):
    """delta_k of the symmetric pairs ((w, k, 0), (2w0 - w, -k, 0))."""
    return pm.delta_k(dm.SpectralPoint(omega, k, 0.0),
                      dm.SpectralPoint(crystal.pump_center_omega - omega, -k, 0.0),
                      crystal)


def _k_max(omega, crystal):
    """Light-cone |k| of the lower-frequency photon of the pair at omega."""
    low = np.minimum(omega, crystal.pump_center_omega - omega)
    return crystal.sellmeier_o.index_at_omega(low) * low / C_LIGHT
