import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT
from scipy.integrate import quad as scipy_quad

from parfluor import dispersion as dm
from parfluor import perturbative as pt
from parfluor import phasematch as pmm
from parfluor.errors import NotConverged, OutOfDispersionWindow

from conftest import omega_of_nm


@pytest.fixture(scope="module")
def pump60_80():
    return pt.PumpSpec(tau_p=60e-15, w_p=80e-6, l_nl=20e-3)


def coeffs_at(lam_nm, crystal):
    omega = omega_of_nm(lam_nm)
    return pmm.linearize(omega, pmm.perfect_curve(omega, crystal), crystal)


def on_surface(lam_nm, crystal):
    omega = omega_of_nm(lam_nm)
    return dm.SpectralPoint(omega, float(pmm.perfect_curve(omega, crystal)), 0.0)


def synthetic_coeffs(d_beta1=0.0, d_rho_px=0.0, d_rho_py=0.0):
    return pmm.LinearizedCoeffs(
        omega_obs=omega_of_nm(800), omega_idler=omega_of_nm(800), k0=0.0,
        d_beta1=d_beta1, d_rho_x=0.0, d_rho_y=0.0,
        d_rho_px=d_rho_px, d_rho_py=d_rho_py)


class TestPumpSpec:
    @pytest.mark.parametrize("name", ["tau_p", "w_p", "l_nl"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_rejects_non_positive_and_nan(self, pump60_80, name, value):
        with pytest.raises(ValueError):
            replace(pump60_80, **{name: value})

    def test_infinite_l_nl_turns_the_coupling_off(self, pump60_80):
        assert replace(pump60_80, l_nl=np.inf).l_nl == np.inf


class TestPumpSpectrum:
    def test_peak_value(self, bbo313, pump60_80):
        peak = pt.pump_spectrum(dm.SpectralPoint(bbo313.pump_center_omega), bbo313,
                                pump60_80)
        expected = pump60_80.w_p**2 * pump60_80.tau_p / (2 * np.pi) ** 1.5
        assert peak == pytest.approx(expected, rel=1e-14)

    def test_normalization_integral(self, bbo313, pump60_80):
        # separable Gaussian: product of three independent 1D quadratures
        peak = float(pt.pump_spectrum(dm.SpectralPoint(bbo313.pump_center_omega), bbo313,
                                      pump60_80))
        i_w, _ = scipy_quad(lambda u: np.exp(-0.5 * pump60_80.tau_p**2 * u**2),
                            -8 / pump60_80.tau_p, 8 / pump60_80.tau_p)
        i_k, _ = scipy_quad(lambda k: np.exp(-0.5 * pump60_80.w_p**2 * k**2),
                            -8 / pump60_80.w_p, 8 / pump60_80.w_p)
        total = peak * i_w * i_k * i_k
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_one_sigma_frequency_offset(self, bbo313, pump60_80):
        w = bbo313.pump_center_omega + 1.0 / pump60_80.tau_p
        peak = pt.pump_spectrum(dm.SpectralPoint(bbo313.pump_center_omega), bbo313,
                                pump60_80)
        val = pt.pump_spectrum(dm.SpectralPoint(w), bbo313, pump60_80)
        assert val == pytest.approx(peak * np.exp(-0.5), rel=1e-12)


class TestClosedForm:
    def test_zero_walkoff_reduction(self, bbo29, pump60_80):
        flux = pt.flux_closed_form(synthetic_coeffs(), bbo29, pump60_80)
        expected = (pump60_80.w_p**2 * pump60_80.tau_p / (4 * np.pi**1.5)
                    * (bbo29.length / pump60_80.l_nl) ** 2 * 0.5)
        assert flux == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_temporal_walkoff(self, bbo29, pump60_80):
        betas = np.linspace(0, 5e-10, 12)
        fluxes = pt.flux_closed_form(synthetic_coeffs(d_beta1=betas), bbo29, pump60_80)
        assert fluxes.shape == betas.shape
        assert np.all(np.diff(fluxes) < 0)
        down = pt.flux_closed_form(synthetic_coeffs(d_beta1=-3e-10), bbo29, pump60_80)
        up = pt.flux_closed_form(synthetic_coeffs(d_beta1=3e-10), bbo29, pump60_80)
        assert down == up  # depends on |d_beta1| only

    def test_gain_scaling_exact(self, bbo313, pump60_80):
        half = pt.PumpSpec(tau_p=pump60_80.tau_p, w_p=pump60_80.w_p, l_nl=10e-3)
        f1 = pt.flux_closed_form(coeffs_at(700, bbo313), bbo313, pump60_80)
        f2 = pt.flux_closed_form(coeffs_at(700, bbo313), bbo313, half)
        assert f2 / f1 == pytest.approx(4.0, rel=1e-14)

    def test_nan_without_matched_point(self, bbo29, pump60_80):
        # inside the theta=29.0 degeneracy gap the matched point is absent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flux = pt.flux_closed_form(coeffs_at(800, bbo29), bbo29, pump60_80)
            grid = pt.flux_closed_form(coeffs_at(np.array([700.0, 800.0]), bbo29),
                                       bbo29, pump60_80)
        assert np.isnan(flux)
        assert np.isfinite(grid[0]) and np.isnan(grid[1])


class TestQuadratures:
    def test_gaussianized_matches_closed_form(self, bbo313, pump60_80):
        coeffs = coeffs_at(np.array([600.0, 760.0, 1000.0]), bbo313)
        cf = pt.flux_closed_form(coeffs, bbo313, pump60_80)
        fg = pt.flux_quadrature_gaussianized(coeffs, bbo313, pump60_80)[0]
        np.testing.assert_allclose(fg, cf, rtol=0.01)

    def test_exact_within_25pct_of_closed_form(self, bbo313, pump60_80):
        for lam in (600, 760, 1000):
            cf = pt.flux_closed_form(coeffs_at(lam, bbo313), bbo313, pump60_80)
            kappa = on_surface(lam, bbo313)
            fe = pt.flux_quadrature_exact(kappa, bbo313, pump60_80)[0]
            assert abs(cf / fe - 1) < 0.25

    def test_amplitude_scaling(self, bbo313, pump60_80):
        # halving l_nl quadruples the flux
        half = pt.PumpSpec(tau_p=pump60_80.tau_p, w_p=pump60_80.w_p,
                           l_nl=pump60_80.l_nl / 2)
        kappa = on_surface(700, bbo313)
        f1 = pt.flux_quadrature_exact(kappa, bbo313, pump60_80)[0]
        f2 = pt.flux_quadrature_exact(kappa, bbo313, half)[0]
        assert f2 / f1 == pytest.approx(4.0, rel=1e-12)

    def test_far_off_surface_suppression(self, bbo313, pump60_80):
        lam = 700
        k0 = float(pmm.perfect_curve(omega_of_nm(lam), bbo313))
        on = pt.flux_quadrature_exact(
            dm.SpectralPoint(omega_of_nm(lam), k0, 0.0), bbo313, pump60_80)[0]
        off = pt.flux_quadrature_exact(
            dm.SpectralPoint(omega_of_nm(lam), 0.55 * k0, 0.0), bbo313,
            pump60_80)[0]
        assert off < 1e-3 * on

    def test_mirror_symmetry_of_exact_quadrature(self, bbo313, pump60_80):
        k0 = float(pmm.perfect_curve(omega_of_nm(760), bbo313))
        kx, ky = k0 * 0.6, k0 * 0.8
        f_up = pt.flux_quadrature_exact(dm.SpectralPoint(omega_of_nm(760), kx, ky),
                                        bbo313, pump60_80)[0]
        f_dn = pt.flux_quadrature_exact(dm.SpectralPoint(omega_of_nm(760), -kx, -ky),
                                        bbo313, pump60_80)[0]
        assert f_dn == pytest.approx(f_up, rel=0.02)

    def test_wide_pump_limit_gaussian_vs_exact(self, bbo313):
        # localized integrand: linearization exact, only the sinc mass ratio remains
        wide = pt.PumpSpec(tau_p=600e-15, w_p=800e-6, l_nl=20e-3)
        kappa = on_surface(700, bbo313)
        fe, err_e = pt.flux_quadrature_exact(kappa, bbo313, wide)
        fg, err_g = pt.flux_quadrature_gaussianized(coeffs_at(700, bbo313), bbo313, wide)
        assert err_e <= 0.01 and err_g <= 0.01
        assert fg / fe == pytest.approx(1.0, abs=0.05)

    def test_not_converged(self, bbo313, pump60_80):
        kappa = on_surface(700, bbo313)
        with pytest.raises(NotConverged):
            pt.flux_quadrature_exact(kappa, bbo313, pump60_80, rel_tol=1e-12)

    def test_signal_near_pump_frequency_is_out_of_window(self, bbo313, pump60_80):
        # the idler box would reach omega' <= 0
        w = bbo313.pump_center_omega - 2.5 / (np.sqrt(2.0) * pump60_80.tau_p)
        with pytest.raises(OutOfDispersionWindow):
            pt.flux_quadrature_exact(dm.SpectralPoint(w, 0.0, 0.0), bbo313, pump60_80)


class TestBatchedQuadrature:
    """One quadrature call for many signals gives each what a call for that
    signal alone gives, and refuses the whole batch for one bad signal."""

    LAMS = np.array([550.0, 700.0, 850.0, 1150.0])
    REL_TOL = 1e-3

    @pytest.fixture(scope="class")
    def short_pump(self):
        # a 20 fs pulse widens the idler box, so the rows converge unevenly
        return pt.PumpSpec(tau_p=20e-15, w_p=80e-6, l_nl=20e-3)

    @pytest.mark.parametrize("route", ["exact", "gaussianized"])
    def test_rows_equal_single_signal_calls_bitwise(self, bbo313, short_pump, route):
        omega = omega_of_nm(self.LAMS)
        k0 = pmm.perfect_curve(omega, bbo313)
        _, flux, err = pt.spectrum_along_curve(self.LAMS, bbo313, short_pump,
                                               method=route, rel_tol=self.REL_TOL)
        for i in range(self.LAMS.size):
            if route == "exact":
                one = pt.flux_quadrature_exact(dm.SpectralPoint(omega[i], k0[i], 0.0),
                                               bbo313, short_pump, self.REL_TOL)
            else:
                table = pmm.linearize(omega[i:i + 1], k0[i:i + 1], bbo313)
                one = tuple(a[0] for a in pt.flux_quadrature_gaussianized(
                    table, bbo313, short_pump, self.REL_TOL))
            assert (flux[i], err[i]) == one

    def test_gaussianized_table_with_gap(self, bbo29, short_pump):
        # the theta=29.0 grid has no matched point around 800 nm: NaN there,
        # without a warning, and each matched row as a one-point table gives
        lams = np.linspace(500.0, 1200.0, 15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = pmm.scan_curve(lams, bbo29)[1]
            flux, err = pt.flux_quadrature_gaussianized(table, bbo29, short_pump,
                                                        self.REL_TOL)
        gap = np.isnan(table.k0)
        assert 0 < gap.sum() < gap.size and gap[lams == 800.0].all()
        np.testing.assert_array_equal(np.isnan(flux), gap)
        np.testing.assert_array_equal(np.isnan(err), gap)
        for i in np.flatnonzero(~gap):
            one = pt.flux_quadrature_gaussianized(
                pmm.linearize(table.omega_obs[i:i + 1], table.k0[i:i + 1], bbo29),
                bbo29, short_pump, self.REL_TOL)
            assert (flux[i], err[i]) == (one[0][0], one[1][0])

    def test_middle_rows_need_another_doubling(self, bbo313, short_pump, monkeypatch):
        monkeypatch.setattr(pt, "MAX_DOUBLINGS", 1)
        for lam in self.LAMS[[0, 3]]:
            pt.flux_quadrature_exact(on_surface(lam, bbo313), bbo313, short_pump,
                                     self.REL_TOL)
        for lam in self.LAMS[[1, 2]]:
            with pytest.raises(NotConverged):
                pt.flux_quadrature_exact(on_surface(lam, bbo313), bbo313, short_pump,
                                         self.REL_TOL)
        with pytest.raises(NotConverged):
            pt.spectrum_along_curve(self.LAMS, bbo313, short_pump, method="exact",
                                    rel_tol=self.REL_TOL)

    def test_one_signal_near_the_pump_refuses_the_batch(self, bbo313, pump60_80):
        near = bbo313.pump_center_omega - 2.5 / (np.sqrt(2.0) * pump60_80.tau_p)
        good = on_surface(700, bbo313)
        kappa = dm.SpectralPoint(np.array([good.omega, near]), np.array([good.kx, 0.0]), 0.0)
        with pytest.raises(OutOfDispersionWindow):
            pt.flux_quadrature_exact(kappa, bbo313, pump60_80)

    def test_scalar_signal_gives_scalars(self, bbo313, pump60_80):
        flux, err = pt.flux_quadrature_exact(on_surface(700, bbo313), bbo313, pump60_80)
        assert np.ndim(flux) == np.ndim(err) == 0


def full_box_level(kappa, crystal, pump, n, factor):
    """Midpoint sum over the whole idler box at n nodes per axis, with the
    squared pump written out as one Gaussian."""
    half_u = pt.SUPPORT_SIGMA / (np.sqrt(2.0) * pump.tau_p)
    half_k = pt.SUPPORT_SIGMA / (np.sqrt(2.0) * pump.w_p)
    s = (2.0 * np.arange(n) + 1.0) / n - 1.0
    w_i = (crystal.pump_center_omega - kappa.omega + half_u * s)[:, None, None]
    kx_i = (-kappa.kx + half_k * s)[None, :, None]
    ky_i = (-kappa.ky + half_k * s)[None, None, :]
    peak = pump.w_p**2 * pump.tau_p / (2.0 * np.pi) ** 1.5
    weight = peak**2 * np.exp(
        -pump.tau_p**2 * (kappa.omega + w_i - crystal.pump_center_omega) ** 2
        - pump.w_p**2 * ((kappa.kx + kx_i) ** 2 + (kappa.ky + ky_i) ** 2))
    return np.nansum(weight * factor(w_i, kx_i, ky_i)) * (2.0 * half_u / n) * (
        2.0 * half_k / n) ** 2


class TestHalfBox:
    """At ky = 0 the quadratures sum only the ky' >= 0 half of the idler box."""

    @pytest.mark.parametrize("route", ["exact", "gaussianized"])
    def test_matches_full_box_midpoint_sum(self, bbo313, pump60_80, route):
        lam, L = 760, bbo313.length
        kappa = on_surface(lam, bbo313)
        coeffs = coeffs_at(lam, bbo313)
        if route == "exact":
            def factor(w_i, kx_i, ky_i):
                dk = pmm.delta_k(kappa, dm.SpectralPoint(w_i, kx_i, ky_i), bbo313)
                return np.sinc(L * dk / (2.0 * np.pi)) ** 2
        else:
            # the on-ring mismatch: kappa is (w, k0, 0), where d_rho_py is zero
            def factor(w_i, kx_i, ky_i):
                dk = (coeffs.d_beta1 * (w_i - coeffs.omega_idler)
                      + coeffs.d_rho_px * (kx_i + coeffs.k0))
                return np.exp(-(L * dk) ** 2 / 12.0)
        coarse, fine = (full_box_level(kappa, bbo313, pump60_80, n, factor)
                        for n in (pt.N_INIT, 2 * pt.N_INIT))
        expected = (L / pump60_80.l_nl) ** 2 * (fine + (fine - coarse) / 3.0)
        # a tolerance of 1 accepts the first doubling
        if route == "exact":
            got = pt.flux_quadrature_exact(kappa, bbo313, pump60_80, 1.0)[0]
        else:
            got = pt.flux_quadrature_gaussianized(coeffs, bbo313, pump60_80, 1.0)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ky_frac, half", [(0.0, True), (0.3, False)])
    def test_factor_sees_half_box_only_at_ky_zero(self, bbo313, pump60_80, ky_frac, half):
        k0 = on_surface(760, bbo313).kx
        kappa = dm.SpectralPoint(omega_of_nm(760), k0, ky_frac * k0)
        seen = []

        def factor(kappa_p):
            def at(rows, signal, idler):
                seen.append(idler.ky.ravel() + kappa.ky)  # ky' relative to the box center
                # which is also the ky of the pump lattice, kappa + kappa'
                np.testing.assert_allclose(kappa_p.ky.ravel(), seen[-1], rtol=0,
                                           atol=1e-9 * kappa.kx)
                return np.ones(np.broadcast(signal.omega, idler.omega, idler.kx,
                                            idler.ky).shape)
            return at

        pt._quadrature(kappa, bbo313, pump60_80, 1.0, factor)
        assert [len(k) for k in seen] == ([8, 16] if half else [16, 32])
        for k in seen:
            assert np.all(k > 0) if half else (k.min() < 0 < k.max())

    @given(lam=st.floats(550, 1150), u=st.floats(-1, 1), s=st.floats(-1, 1),
           t=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_delta_k_even_in_idler_ky(self, bbo313, pump60_80, lam, u, s, t):
        # over the idler box around the conjugate point of a matched signal
        kappa = on_surface(lam, bbo313)
        half_u = pt.SUPPORT_SIGMA / (np.sqrt(2.0) * pump60_80.tau_p)
        half_k = pt.SUPPORT_SIGMA / (np.sqrt(2.0) * pump60_80.w_p)
        w_i = bbo313.pump_center_omega - kappa.omega + u * half_u
        kx_i, ky_i = -kappa.kx + s * half_k, t * half_k
        up = pmm.delta_k(kappa, dm.SpectralPoint(w_i, kx_i, ky_i), bbo313)
        down = pmm.delta_k(kappa, dm.SpectralPoint(w_i, kx_i, -ky_i), bbo313)
        np.testing.assert_array_equal(up, down)


class TestEvanescentIdlers:
    def test_nodes_beyond_the_light_cone_count_as_zero(self, bbo313, pump60_80):
        # an off-axis signal whose transverse wavevector has the length of
        # the idler's o-ray wavenumber: its idler box straddles the light
        # cone, so part of its nodes are NaN
        L, omega = bbo313.length, omega_of_nm(650)
        k_idler = float(dm.k_ordinary(bbo313.pump_center_omega - omega, bbo313))
        kappa = dm.SpectralPoint(omega, 0.6 * k_idler, 0.8 * k_idler)
        nan_share = []

        def factor(w_i, kx_i, ky_i):
            dk = pmm.delta_k(kappa, dm.SpectralPoint(w_i, kx_i, ky_i), bbo313)
            nan_share.append(np.isnan(dk).mean())
            return np.sinc(L * dk / (2.0 * np.pi)) ** 2

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coarse, fine = (full_box_level(kappa, bbo313, pump60_80, n, factor)
                            for n in (pt.N_INIT, 2 * pt.N_INIT))
            got = pt.flux_quadrature_exact(kappa, bbo313, pump60_80, 1.0)[0]
        assert all(0.1 < share < 0.9 for share in nan_share)
        expected = (L / pump60_80.l_nl) ** 2 * (fine + (fine - coarse) / 3.0)
        assert got == pytest.approx(expected, rel=1e-12)


def peak_and_gvm_zero(theta_deg, tau_fs, w_um):
    """Wavelengths [nm] of the closed-form flux peak and of the |d_beta1|
    minimum over the matched points of a 1401-point grid over 500-1200 nm."""
    crystal = dm.make_crystal(np.deg2rad(theta_deg), 2e-3, 400e-9)
    pump = pt.PumpSpec(tau_p=tau_fs * 1e-15, w_p=w_um * 1e-6, l_nl=20e-3)
    lams = np.linspace(500.0, 1200.0, 1401)
    coeffs = pmm.scan_curve(lams, crystal)[1]
    flux = pt.flux_closed_form(coeffs, crystal, pump)
    return lams[np.nanargmax(flux)], lams[np.nanargmin(np.abs(coeffs.d_beta1))]


class TestPaperClaims:
    """The abstract's claims (b)-(d) on the closed form, each against the
    wavelength where pump and idler have equal group velocities."""

    STEP_NM = 0.5  # the grid step

    @pytest.mark.parametrize("theta", [35.0, 40.0])
    def test_short_pulse_peaks_at_equal_group_velocity(self, theta):
        # (b): a 20 fs pulse in a wide beam, where walk-off does not matter
        peak, zero = peak_and_gvm_zero(theta, 20.0, 2000.0)
        assert abs(peak - zero) <= self.STEP_NM

    def test_short_pulse_peak_on_exact_quadrature(self):
        """(b) on `exact` at 35 deg over 520-560 nm, with the quadrature's
        default rel_tol as the bound: the flux at the |d_beta1| minimum is
        within it of the window's maximum, and both window ends lie more
        than it below.  At 40 deg the spectrum is flat to 0.2% over +-20 nm
        around the minimum, so the same check there would not discriminate.
        """
        crystal = dm.make_crystal(np.deg2rad(35.0), 2e-3, 400e-9)
        pump = pt.PumpSpec(tau_p=20e-15, w_p=2e-3, l_nl=20e-3)
        lams = np.linspace(520.0, 560.0, 81)
        coeffs = pmm.scan_curve(lams, crystal)[1]
        assert np.all(np.isfinite(coeffs.k0))
        _, flux, _ = pt.spectrum_along_curve(lams, crystal, pump, method="exact")
        bound = (1.0 - pt.QUAD_REL_TOL) * flux.max()
        assert flux[np.argmin(np.abs(coeffs.d_beta1))] >= bound
        assert max(flux[0], flux[-1]) < bound

    def test_longer_pulse_relaxes_the_peak(self):
        # (c): the peak leaves the equal-group-velocity point as tau grows
        offsets = [abs(np.subtract(*peak_and_gvm_zero(40.0, tau, 2000.0)))
                   for tau in (20.0, 60.0, 240.0)]
        assert offsets == sorted(offsets)
        assert offsets[-1] > 10.0

    @pytest.mark.parametrize("theta", [35.0, 40.0])
    def test_small_beam_peak_set_by_walk_off(self, theta):
        # (d): in an 80 um beam the spatial walk-off, not the group
        # velocities, decides where the flux peaks
        peak, zero = peak_and_gvm_zero(theta, 60.0, 80.0)
        assert abs(peak - zero) > 100.0


class TestSpectrumAlongCurve:
    def test_row_count_and_positivity(self, bbo313, pump60_80):
        lams = np.linspace(550, 1150, 25)
        alpha, flux, err = pt.spectrum_along_curve(lams, bbo313, pump60_80)
        assert alpha.shape == flux.shape == err.shape == (25,)
        np.testing.assert_array_equal(np.isnan(alpha), np.isnan(flux))
        assert np.all(np.isnan(err))  # closed_form carries no quadrature error
        assert np.all(flux[~np.isnan(flux)] >= 0)

    def test_longer_pulse_flattens_spectrum(self, bbo313):
        lams = np.linspace(520, 1200, 60)
        flux = {}
        for tau_fs in (60, 120):
            pump = pt.PumpSpec(tau_p=tau_fs * 1e-15, w_p=80e-6, l_nl=20e-3)
            vals = pt.spectrum_along_curve(lams, bbo313, pump)[1]
            flux[tau_fs] = vals[~np.isnan(vals)]
        ratio60 = flux[60].max() / np.median(flux[60])
        ratio120 = flux[120].max() / np.median(flux[120])
        assert ratio120 < ratio60

    def test_wider_beam_raises_flux_everywhere(self, bbo313):
        lams = np.linspace(550, 1150, 30)
        narrow = pt.PumpSpec(tau_p=60e-15, w_p=80e-6, l_nl=20e-3)
        wide = pt.PumpSpec(tau_p=60e-15, w_p=160e-6, l_nl=20e-3)
        f_n = pt.spectrum_along_curve(lams, bbo313, narrow)[1]
        f_w = pt.spectrum_along_curve(lams, bbo313, wide)[1]
        matched = ~np.isnan(f_n)
        assert np.all(f_w[matched] > f_n[matched])

    def test_unknown_method_rejected(self, bbo313, pump60_80):
        with pytest.raises(ValueError):
            pt.spectrum_along_curve([800.0], bbo313, pump60_80, method="magic")
