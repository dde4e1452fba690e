import csv
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from parfluor import dispersion as dm
from parfluor import perturbative as pt
from parfluor import phasematch as pmm
from parfluor import wigner as wg
from parfluor.errors import GridUnderresolved, NotConverged, OutOfDispersionWindow

from conftest import omega_of_nm


@pytest.fixture(scope="module")
def crystal():
    return dm.make_crystal(theta_cut=_degenerate_angle() + 1e-8, length=2e-3,
                           pump_wavelength=400e-9)


def _degenerate_angle():
    crystal = dm.make_crystal(np.deg2rad(29.0), 2e-3, 400e-9)
    n_os = float(crystal.sellmeier_o.index_at_omega(omega_of_nm(800)))
    n_op = float(crystal.sellmeier_o.index_at_omega(omega_of_nm(400)))
    n_ep = float(crystal.sellmeier_e.index_at_omega(omega_of_nm(400)))
    s2 = (n_os**-2 - n_op**-2) / (n_ep**-2 - n_op**-2)
    return float(np.arcsin(np.sqrt(s2)))


@pytest.fixture(scope="module")
def grid(request):
    """32x16x16, or the (n_t, n_x, n_y) a test passes through on_grids."""
    n_t, n_x, n_y = getattr(request, "param", (32, 16, 16))
    return wg.SimulationGrid(n_t=n_t, n_x=n_x, n_y=n_y, span_t=480e-15,
                             span_x=640e-6, span_y=640e-6, n_z=50)


# the fixture grid, and one even and one odd size that is no power of two
on_grids = pytest.mark.parametrize(
    "grid", [(32, 16, 16), (24, 12, 12), (15, 9, 9)], indirect=True,
    ids=lambda shape: "x".join(map(str, shape)))


@pytest.fixture(scope="module")
def pump():
    return pt.PumpSpec(tau_p=60e-15, w_p=80e-6, l_nl=20e-3)


def _reference_strang(prop, batch, l_nl):
    """The split step written out of place from the propagator's phase rates
    and entrance pump, with the complex tables (g/|g|) sinh(|g| dz) and
    cosh(|g| dz), at complex128; each step's pump takes its whole phase
    from the entrance face at once."""
    half_linear = np.exp(0.5j * prop.phase_sig * prop.dz)
    a = batch.astype(np.complex128) * half_linear
    for step in range(prop.grid.n_z):
        z = (step + 0.5) * prop.dz
        g = wg.to_position(prop.pump0 * np.exp(1j * prop.phase_pmp * z)) / l_nl
        m = np.abs(g) * prop.dz
        with np.errstate(invalid="ignore", divide="ignore"):
            phase = np.where(m > 0, g / np.where(m > 0, np.abs(g), 1.0), 1.0 + 0j)
        pos = wg.to_position(a)
        pos = np.cosh(m) * pos + phase * np.sinh(m) * np.conj(pos)
        a = wg.to_spectral(pos)
        if step < prop.grid.n_z - 1:
            a = a * np.exp(1j * prop.phase_sig * prop.dz)
    return a * half_linear


def _traced_peak(fn, *args):
    """The peak traced memory fn(*args) allocates beyond what is live when
    it starts: the scratch it holds besides its arguments."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _pump_fields(prop):
    """The pump's position field at z = (j + 1/2) dz for each of the n_z
    steps, each phased from the entrance face at once, with no stepping."""
    for step in range(prop.grid.n_z):
        z = (step + 0.5) * prop.dz
        yield wg.to_position(prop.pump0 * np.exp(1j * prop.phase_pmp * z))


class TestGrid:
    @pytest.mark.parametrize("name", ["n_t", "n_x", "n_y"])
    def test_rejects_size_below_two(self, grid, name):
        with pytest.raises(ValueError, match=name):
            replace(grid, **{name: 1})

    def test_accepts_sizes_that_are_no_power_of_two(self, grid):
        assert replace(grid, n_t=24, n_x=15, n_y=15).shape == (24, 15, 15)

    @pytest.mark.parametrize("name", ["span_t", "span_x", "span_y"])
    def test_rejects_nan_span(self, grid, name):
        with pytest.raises(ValueError):
            replace(grid, **{name: np.nan})

    def test_mode_volume(self, grid):
        expected = (2 * np.pi) ** 3 / (grid.span_t * grid.span_x * grid.span_y)
        assert grid.mode_volume == pytest.approx(expected, rel=1e-15)

    def test_underresolved_transverse_window(self, crystal, pump):
        # tiny spatial window pushes the transverse Nyquist beyond the light cone
        bad = wg.SimulationGrid(n_t=8, n_x=64, n_y=4, span_t=480e-15,
                                span_x=12e-6, span_y=640e-6, n_z=10)
        with pytest.raises(GridUnderresolved):
            wg._Propagator(crystal, pump, bad)


class TestVacuumSampling:
    def test_moments(self, grid):
        f = wg.sample_vacuum(grid, wg.vacuum_rng(1, 0))
        assert f.shape == grid.shape and f.dtype == np.complex128
        mags = np.abs(f) ** 2
        n = mags.size
        assert mags.mean() == pytest.approx(0.5, abs=3 * 0.5 / np.sqrt(n))
        assert abs((f**2).mean()) < 3 * 0.5 / np.sqrt(n)

    def test_quadrature_variances(self, grid):
        f = wg.sample_vacuum(grid, wg.vacuum_rng(2, 5))
        n = f.size
        assert f.real.var() == pytest.approx(0.25, abs=4 * 0.25 / np.sqrt(n))
        assert f.imag.var() == pytest.approx(0.25, abs=4 * 0.25 / np.sqrt(n))

    def test_deterministic_per_seed_and_index(self, grid):
        a = wg.sample_vacuum(grid, wg.vacuum_rng(42, 3))
        b = wg.sample_vacuum(grid, wg.vacuum_rng(42, 3))
        c = wg.sample_vacuum(grid, wg.vacuum_rng(42, 4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestTransforms:
    def test_roundtrip_and_parseval(self, grid):
        f = wg.sample_vacuum(grid, wg.vacuum_rng(3, 0))
        pos = wg.to_position(f)
        back = wg.to_spectral(pos)
        assert np.max(np.abs(back - f)) < 1e-12
        n_spec = np.sum(np.abs(f) ** 2)
        n_pos = np.sum(np.abs(pos) ** 2)
        assert abs(n_pos - n_spec) / n_spec < 1e-12


class TestPumpField:
    """The pump the propagator steps along: its entrance-face envelope and
    the reference-frame phase rates that carry it to the exit face."""

    @on_grids
    def test_entrance_face_gaussian(self, crystal, pump, grid):
        P = wg.to_position(wg._pump_spectrum0(pump, grid))
        assert P.shape == grid.shape
        peak = np.max(np.abs(P))
        assert peak == pytest.approx(1.0, rel=1e-9)
        it, ix, iy = np.unravel_index(np.argmax(np.abs(P)), P.shape)
        assert (it, ix, iy) == (grid.n_t // 2, grid.n_x // 2, grid.n_y // 2)

    def test_spectral_norm_z_independent(self, crystal, pump, grid):
        # real phase rates turn only phases: the pump field of every step
        # keeps the entrance energy, and every pump mode its magnitude
        prop = wg._Propagator(crystal, pump, grid)
        assert np.isrealobj(prop.phase_pmp)
        entrance = np.abs(wg._pump_spectrum0(pump, grid))
        energy = np.sum(entrance**2)
        for pump_pos in _pump_fields(prop):
            assert abs(np.sum(wg._mag_squared(pump_pos.copy())) - energy) < 1e-12 * energy
            spec = np.abs(wg.to_spectral(pump_pos))
            assert np.max(np.abs(spec - entrance)) < 1e-12 * entrance.max()

    def test_steps_sample_the_pump_at_half_steps(self, crystal, pump, grid):
        # one pair of tables per step, step j's built from the pump field at
        # z = (j + 1/2) dz; bounds are absolute, since the tails are ~1e-19
        prop = wg._Propagator(crystal, pump, grid)
        tables = list(prop.steps(pump.l_nl))
        assert len(tables) == grid.n_z
        for (ch, psh), pump_pos in zip(tables, _pump_fields(prop)):
            g_dz = pump_pos * (prop.dz / pump.l_nl)
            m = np.abs(g_dz)
            want = g_dz * np.sinh(m) / m
            assert np.max(np.abs(ch - np.cosh(m))) < 1e-13
            assert np.max(np.abs(psh - want)) < 1e-12 * np.max(np.abs(want))

    def test_walkoff_drift_slope(self, pump, grid, bbo29, bbo313, bbo40):
        # the reference frame moves with the pump's group slowness and
        # transverse walk-off, so the |P|^2 centroid stays at the window
        # center at every step; the lab-frame walk-off over the crystal is
        # 3.4-3.8 cells, so a wrong slope fails the bound many times over
        center = np.array([grid.n_t // 2, grid.n_x // 2])
        for crystal in (bbo29, bbo313, bbo40):
            prop = wg._Propagator(crystal, pump, grid)
            for pump_pos in _pump_fields(prop):
                intensity = np.abs(pump_pos) ** 2
                centroid = [np.average(np.arange(n), weights=intensity.sum(axis=other))
                            for n, other in ((grid.n_t, (1, 2)), (grid.n_x, (0, 2)))]
                assert np.max(np.abs(centroid - center)) < 0.01


class TestPropagate:
    @on_grids
    def test_zero_pump_is_unitary(self, crystal, pump, grid):
        f = wg.sample_vacuum(grid, wg.vacuum_rng(7, 0))
        prop = wg._Propagator(crystal, pump, grid)
        out = prop.run_batch(f[None].copy(), np.inf)[0]  # run_batch consumes its input
        assert out.shape == f.shape
        n_in = np.sum(np.abs(f) ** 2)
        n_out = np.sum(np.abs(out) ** 2)
        assert abs(n_out - n_in) / n_in < 1e-12
        # dispersion-only evolution is diagonal: per-mode magnitudes unchanged
        assert np.max(np.abs(np.abs(out) - np.abs(f))) < 1e-10

    def test_bogoliubov_determinant(self, crystal, pump, grid):
        prop = wg._Propagator(crystal, pump, grid)
        for ch, psh in prop.steps(pump.l_nl):
            assert ch.dtype == np.float64 and psh.dtype == np.complex128
            det = ch**2 - np.abs(psh) ** 2
            assert np.max(np.abs(det - 1.0)) < 1e-12

    def test_bogoliubov_tables_at_zero_pump(self, crystal, pump, grid):
        # m = 0 everywhere: the sinh(m)/m branch must not divide by zero
        prop = wg._Propagator(crystal, pump, grid)
        with np.errstate(all="raise"):
            for ch, psh in prop.steps(np.inf):
                assert np.all(ch == 1.0)
                assert np.all(psh == 0.0)

    @on_grids
    def test_run_batch_matches_reference_strang(self, crystal, pump, grid):
        strong = replace(pump, l_nl=2e-3)  # gain 1
        batch = np.stack([wg.sample_vacuum(grid, wg.vacuum_rng(17, r))
                          for r in range(2)])
        prop = wg._Propagator(crystal, strong, grid)
        want = _reference_strang(prop, batch, strong.l_nl)
        got = prop.run_batch(batch, strong.l_nl)
        assert got.dtype == np.complex128
        assert np.shares_memory(got, batch)  # propagated in place
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12

    def test_phase_tables_match_the_expression_to_the_bit(self, crystal, pump, grid):
        prop = wg._Propagator(crystal, pump, grid)
        for phase in (prop.phase_sig, prop.phase_pmp):
            for coef in (0.5j, 1.0j):
                np.testing.assert_array_equal(prop._phase_factor(coef, phase),
                                              np.exp(coef * phase * prop.dz))

    # fixed before measuring: the alpha* scratch, the full-step linear table,
    # the stepped pump spectrum and its step factor, and one step's tables
    # with the temporaries that build them come to about 7.1 fields here
    # (numpy's 8192-element cast buffer is one field of this 8192-mode grid)
    MAX_SCRATCH_FIELDS = 8

    def test_run_batch_scratch_is_independent_of_batch_size(self, crystal, pump, grid):
        strong = replace(pump, l_nl=2e-3)
        prop = wg._Propagator(crystal, strong, grid)
        field = 16 * grid.n_modes
        scratch = []
        for n_real in (1, 8):
            batch = np.stack([wg.sample_vacuum(grid, wg.vacuum_rng(3, r))
                              for r in range(n_real)])
            # traced peak of the call minus the batch, which exists before it
            scratch.append(_traced_peak(prop.run_batch, batch, strong.l_nl) / field)
        assert abs(scratch[1] - scratch[0]) <= 1.0
        assert max(scratch) < self.MAX_SCRATCH_FIELDS

    def test_amplification_grows_with_gain(self, crystal, pump, grid):
        f = wg.sample_vacuum(grid, wg.vacuum_rng(11, 0))
        prop = wg._Propagator(crystal, pump, grid)
        totals = []
        for l_nl in (8e-3, 2e-3, 0.5e-3):
            out = prop.run_batch(f[None].copy(), l_nl)  # run_batch consumes its input
            totals.append(np.sum(np.abs(out) ** 2))
        assert totals[0] < totals[1] < totals[2]

    def test_z_step_convergence(self, crystal, pump, grid):
        ens = wg.EnsembleSpec(n_realizations=2, seed=5)
        strong = replace(pump, l_nl=2e-3)  # gain 1
        fine_grid = wg.SimulationGrid(n_t=grid.n_t, n_x=grid.n_x, n_y=grid.n_y,
                                      span_t=grid.span_t, span_x=grid.span_x,
                                      span_y=grid.span_y, n_z=2 * grid.n_z)
        _, _, t_coarse, _ = wg._ensemble_flux(wg._Propagator(crystal, strong, grid),
                                              strong.l_nl, ens, paired=True)
        _, _, t_fine, _ = wg._ensemble_flux(wg._Propagator(crystal, strong, fine_grid),
                                            strong.l_nl, ens, paired=True)
        assert abs(t_fine - t_coarse) / t_fine < 0.02


class TestEstimateFlux:
    def test_unpropagated_vacuum_is_null(self, crystal, pump, grid):
        # at zero pump the propagation only turns phases
        prop = wg._Propagator(crystal, pump, replace(grid, n_z=2))
        flux, stderr, _, _ = wg._ensemble_flux(prop, np.inf,
                                               wg.EnsembleSpec(100, seed=21))
        frac = np.mean(np.abs(flux) < 3 * stderr)
        assert frac >= 0.99

    def test_exact_zero_for_half_photon_magnitude(self, grid):
        # 0.5 + 0.5j has |a|^2 = 0.5 exactly in binary floating point
        data = np.full(grid.shape, 0.5 + 0.5j, dtype=complex)
        acc = wg._FluxAccumulator(grid.shape)
        acc.add(wg._mag_squared(data[None]))
        assert np.all(acc.mean() - 0.5 == 0.0)
        assert np.all(np.isnan(acc.stderr()))

    def test_single_realization_has_no_stderr(self, crystal, pump, grid):
        prop = wg._Propagator(crystal, pump, replace(grid, n_z=2))
        _, stderr, _, _ = wg._ensemble_flux(prop, pump.l_nl, wg.EnsembleSpec(1, seed=1))
        assert np.all(np.isnan(stderr))

    def test_mag_squared_is_re2_plus_im2_to_the_bit(self, grid):
        data = wg.sample_vacuum(grid, wg.vacuum_rng(9, 0))[None]
        want = data.real * data.real + data.imag * data.imag
        np.testing.assert_array_equal(wg._mag_squared(data.copy()), want)
        out = np.empty(want.shape)
        assert wg._mag_squared(data, out=out) is out
        np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("paired, row_bytes", [(False, 24), (True, 32)])
    def test_memory_per_realization(self, crystal, pump, grid, paired, row_bytes):
        # an extra realization holds its batch row (16 B per mode) and its
        # exit |a|^2 row (8), and paired its entrance |a|^2 row (8); at the
        # largest batch, 32, these outweigh the fixed scratch of a step, and
        # the 1 kB allows for per-realization Python objects
        prop = wg._Propagator(crystal, replace(pump, l_nl=2e-3), replace(grid, n_z=4))
        peaks = [_traced_peak(wg._ensemble_flux, prop, 2e-3,
                              wg.EnsembleSpec(n_real, seed=3), paired)
                 for n_real in (1, 32, 64)]
        assert (peaks[1] - peaks[0]) / 31 <= row_bytes * grid.n_modes + 1024
        # a second batch of 32 finds nothing of the first but the
        # accumulator's shift row (8 B per mode)
        assert peaks[2] - peaks[1] <= 8 * grid.n_modes + 1024

    def test_accumulator_stable_at_large_mean(self):
        # sum(x^2) - sum(x)^2/n loses every digit of a unit spread at 1e9
        rng = np.random.default_rng(5)
        values = 1e9 + rng.standard_normal((40, 6, 5))
        acc = wg._FluxAccumulator(values.shape[1:])
        for chunk in np.array_split(values, [7, 8, 25]):
            acc.add(chunk)
        expected = values.std(axis=0, ddof=1) / np.sqrt(len(values))
        np.testing.assert_allclose(acc.stderr(), expected, rtol=1e-9, atol=0)
        np.testing.assert_allclose(acc.mean(), values.mean(axis=0), rtol=1e-15)


class TestAzimuthalAverage:
    @on_grids
    def test_constant_field_and_populations(self, crystal, grid):
        flux = np.full(grid.shape, 0.25)
        stderr = np.full(grid.shape, 0.01)
        fmap = wg.azimuthal_average(flux, stderr, crystal, grid, n_lambda=8, n_alpha=5)
        assert fmap.n_modes.sum() == grid.n_modes
        filled = fmap.n_modes > 0
        assert np.allclose(fmap.flux[filled], 0.25)

    @pytest.mark.filterwarnings("error")
    def test_modes_beyond_the_light_cone_fall_in_no_bin(self, bbo29):
        # a 2 um beam's 8x window reaches transverse wavevectors whose modes
        # cannot refract out: their angle is NaN, and no bin holds them
        grid = wg.SimulationGrid(n_t=32, n_x=32, n_y=32, span_t=480e-15,
                                 span_x=16e-6, span_y=16e-6, n_z=1)
        refracting = ~np.isnan(wg._mode_lambda_alpha(bbo29, grid)[1])
        assert refracting.sum() == grid.n_modes - 1064
        flux = np.random.default_rng(3).random(grid.shape)
        stderr = np.full(grid.shape, np.nan)
        fmap = wg.azimuthal_average(flux, stderr, bbo29, grid, n_lambda=12, n_alpha=9)
        assert np.issubdtype(fmap.n_modes.dtype, np.integer)
        assert fmap.n_modes.sum() == refracting.sum()
        filled = fmap.n_modes > 0
        binned = np.sum(fmap.flux[filled] * fmap.n_modes[filled])
        assert binned == pytest.approx(flux.ravel()[refracting].sum(), rel=1e-12)
        assert not np.any(np.isfinite(fmap.stderr))

    def test_synthetic_radial_profile(self, crystal, grid):
        w, kx, ky = wg._mode_frequencies(crystal, grid)
        kperp = np.sqrt(kx[None, :, None] ** 2 + ky[None, None, :] ** 2)
        profile = np.exp(-((kperp - 4e4) / 2e4) ** 2) * np.ones((grid.n_t, 1, 1))
        fmap = wg.azimuthal_average(profile, np.zeros(grid.shape), crystal, grid,
                                    n_lambda=4, n_alpha=12)
        from scipy.constants import c as c0
        for j, alpha in enumerate(np.deg2rad(fmap.alpha_centers_deg)):
            col = fmap.flux[:, j]
            good = fmap.n_modes[:, j] > 0
            if not np.any(good):
                continue
            k_bin = np.sin(alpha) * omega_of_nm(800) / c0
            expected = np.exp(-((k_bin - 4e4) / 2e4) ** 2)
            assert np.nanmean(col[good]) == pytest.approx(expected, abs=0.2)


# a theta 29 deg grid on which the single-pair prediction seeds the
# calibration: its gain-1 total is predicted at about 20 photons
SEEDED_TARGET = 80.0


@pytest.fixture(scope="module")
def seeded_grid():
    return wg.SimulationGrid(n_t=16, n_x=16, n_y=16, span_t=480e-15,
                             span_x=640e-6, span_y=640e-6, n_z=20)


def first_probe_gain(monkeypatch, target, crystal, pump, grid):
    """The gain of calibrate_gain's first probe, stopped before it propagates."""
    class Stop(Exception):
        pass

    def stop(prop, l_nl, *args, **kwargs):
        raise Stop(crystal.length / l_nl)

    monkeypatch.setattr(wg, "_ensemble_flux", stop)
    with pytest.raises(Stop) as probe:
        wg.calibrate_gain(target, crystal, pump, grid, wg.EnsembleSpec(2, seed=1))
    return probe.value.args[0]


def ring_total(crystal, pump, grid):
    """The closed form's gain-1 total with each grid frequency's transverse
    sum replaced by its integral over the plane.

    Across the ring the off-surface factor exp(-L^2 dk0^2 / (3B)) is a
    Gaussian in |k_perp| - k0 of width sqrt(3B) / (L s), with s = d(dk0)/d|k_perp|
    = k0 (1/kz_s + 1/kz_i) from the signal and idler k_z at k0, so the bracket
    B cancels from the radial integral: the total is
    (sqrt(3)/2) w_p^2 tau_p / L * (2 pi / span_t) * sum kz_s kz_i / (kz_s + kz_i)
    over the grid frequencies where perfect_curve finds a ring.  Near the
    degenerate cut the ring formula misses the near-collinear modes the
    closed form counts, so it holds only where the ring is well open.
    """
    w, _, _ = wg._mode_frequencies(crystal, grid)
    k0 = pmm.perfect_curve(w, crystal)
    on_ring = ~np.isnan(k0)
    w, k0 = w[on_ring], k0[on_ring]
    kz_s = dm.kz_signal_grid(w, k0, 0.0, crystal)
    kz_i = dm.kz_signal_grid(crystal.pump_center_omega - w, k0, 0.0, crystal)
    return (np.sqrt(3.0) / 2.0 * pump.w_p**2 * pump.tau_p / crystal.length
            * (2.0 * np.pi / grid.span_t) * np.sum(kz_s * kz_i / (kz_s + kz_i)))


class TestPredictedTotal:
    def test_near_the_exact_quadrature_at_29(self, bbo29, pump, seeded_grid):
        # no ring is matched near degeneracy; over every 16th mode the closed
        # form's total is within 10% of the exact quadrature's, the bound of
        # test_perturbative's off-surface tests
        w, kx, ky = wg._mode_frequencies(bbo29, seeded_grid)
        w3, kx3, ky3 = (a.ravel() for a in np.meshgrid(w, kx, ky, indexing="ij"))
        gain1 = replace(pump, l_nl=bbo29.length)
        cf = pt.flux_closed_form(pmm.linearize(w3, kx3, bbo29, ky=ky3), bbo29, gain1)
        assert wg.predicted_total(bbo29, pump, seeded_grid) == pytest.approx(
            seeded_grid.mode_volume * cf.sum(), rel=1e-12)
        exact = pt.flux_quadrature_exact(
            dm.SpectralPoint(w3[::16], kx3[::16], ky3[::16]), bbo29, gain1)[0]
        assert cf[::16].sum() / exact.sum() == pytest.approx(1.0, abs=0.1)

    def test_independent_of_l_nl(self, bbo29, pump, seeded_grid):
        assert (wg.predicted_total(bbo29, replace(pump, l_nl=1e-3), seeded_grid)
                == wg.predicted_total(bbo29, pump, seeded_grid))

    @pytest.mark.parametrize("theta_deg, n_xy, span_w", [(31.3, 160, 5.0), (35.0, 256, 6.0)])
    def test_saturates_at_the_ring_total(self, pump, theta_deg, n_xy, span_w):
        # windows that hold the whole ring at every grid frequency
        crystal = dm.make_crystal(np.deg2rad(theta_deg), 2e-3, 400e-9)
        grid = wg.SimulationGrid(16, n_xy, n_xy, 8 * pump.tau_p, span_w * pump.w_p,
                                 span_w * pump.w_p, 10)
        assert wg.predicted_total(crystal, pump, grid) == pytest.approx(
            ring_total(crystal, pump, grid), rel=1e-3)


class TestCalibration:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_first_probe_at_the_predicted_gain(self, bbo29, pump, seeded_grid, seed):
        predicted = wg.predicted_total(bbo29, pump, seeded_grid)
        x0 = 0.5 * np.log(SEEDED_TARGET / predicted)
        assert abs(x0) <= wg._MAX_JUMP
        cal = wg.calibrate_gain(SEEDED_TARGET, bbo29, pump, seeded_grid,
                                wg.EnsembleSpec(n_realizations=4, seed=seed))
        assert cal.trace[0]["gain"] == pytest.approx(np.exp(x0), rel=1e-12)
        assert cal.n_probes == 1
        assert abs(cal.total_photons - SEEDED_TARGET) <= 0.2 * SEEDED_TARGET
        assert cal.summary()["predicted_total_at_gain_1"] == predicted

    def test_starts_at_gain_1_beyond_the_first_jump(self, monkeypatch, crystal, pump,
                                                    grid):
        # the fixture's predicted gain-1 total is about 38 photons: 2e4 lies
        # further than the first jump of the log-gain search
        predicted = wg.predicted_total(crystal, pump, grid)
        assert 0.5 * np.log(2e4 / predicted) > wg._MAX_JUMP
        assert first_probe_gain(monkeypatch, 2e4, crystal, pump, grid) == 1.0

    def test_starts_at_gain_1_where_nothing_is_predicted(self, monkeypatch, bbo40, pump):
        # at 40 deg the ring lies far outside this window: nothing is predicted
        tiny = wg.SimulationGrid(8, 8, 8, 480e-15, 640e-6, 640e-6, 8)
        assert wg.predicted_total(bbo40, pump, tiny) == 0.0
        assert first_probe_gain(monkeypatch, 50.0, bbo40, pump, tiny) == 1.0

    def test_starts_at_gain_1_where_the_prediction_fails(self, monkeypatch, bbo29):
        # a 15.2 fs pump on 64 frequencies: the grid's band ends at 2502 nm,
        # and the idlers of its top plane at 2687 nm, past the 2600 nm window
        short = pt.PumpSpec(tau_p=15.2e-15, w_p=80e-6, l_nl=2e-3)
        band = wg.SimulationGrid(64, 8, 8, 8 * short.tau_p, 8 * short.w_p,
                                 8 * short.w_p, 10)
        with pytest.raises(OutOfDispersionWindow):
            wg.predicted_total(bbo29, short, band)
        assert first_probe_gain(monkeypatch, 50.0, bbo29, short, band) == 1.0

    def test_secant_steps_stay_inside_the_bracket(self, monkeypatch, bbo40, pump):
        # a total fitted to the theta 31.3 deg cell on a 4w window (13.2
        # photons at gain 1, 516 at 4.76), searched from gain 1: the secant
        # meets 300 at the third probe, each probe inside the bracket that
        # the earlier ones set
        def ensemble_flux(prop, l_nl, *args, **kwargs):
            return None, None, 161.78 * np.sinh(bbo40.length / l_nl / 3.5451) ** 2, None

        monkeypatch.setattr(wg, "_ensemble_flux", ensemble_flux)
        monkeypatch.setattr(wg, "predicted_total", lambda *args: 0.0)
        tiny = wg.SimulationGrid(8, 8, 8, 480e-15, 640e-6, 640e-6, 8)
        cal = wg.calibrate_gain(300.0, bbo40, pump, tiny, wg.EnsembleSpec(2, seed=1))
        assert cal.n_probes <= 3
        for k in range(1, cal.n_probes):
            earlier = cal.trace[:k]
            lo = max((p["gain"] for p in earlier if p["total"] < 300.0), default=0.0)
            hi = min((p["gain"] for p in earlier if p["total"] > 300.0), default=np.inf)
            assert lo < cal.trace[k]["gain"] < hi

    def test_reaches_target_within_tolerance(self, crystal, pump, grid):
        ens = wg.EnsembleSpec(n_realizations=4, seed=99)
        cal = wg.calibrate_gain(2e4, crystal, pump, grid, ens)
        assert abs(cal.total_photons - 2e4) <= 0.2 * 2e4
        assert cal.n_probes <= 30

    def test_monotone_in_target(self, crystal, pump, grid):
        ens = wg.EnsembleSpec(n_realizations=2, seed=99)
        lo = wg.calibrate_gain(1e4, crystal, pump, grid, ens)
        hi = wg.calibrate_gain(2e4, crystal, pump, grid, ens)
        assert 1.0 / hi.l_nl > 1.0 / lo.l_nl

    def test_not_converged(self, crystal, pump, grid, monkeypatch):
        monkeypatch.setattr(wg, "_MAX_PROBES", 1)
        ens = wg.EnsembleSpec(n_realizations=2, seed=99)
        with pytest.raises(NotConverged):
            wg.calibrate_gain(1e4, crystal, pump, grid, ens)


class TestCalibratedReuse:
    """A calibrated run propagates on the calibration's one _Propagator and
    takes the ensemble's leading realizations from the last probe."""

    TARGET = 2e3

    @pytest.fixture
    def small(self, grid):
        return replace(grid, n_t=16, n_x=8, n_y=8, n_z=10)

    def _counted_run(self, monkeypatch, crystal, pump, grid, ens, target=TARGET):
        """A calibrated run_simulation, with the _Propagator builds and the
        fields each run_batch propagated."""
        builds, fields = [], []

        class Counting(wg._Propagator):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

            def run_batch(self, batch, l_nl):
                fields.append(len(batch))
                return super().run_batch(batch, l_nl)

        monkeypatch.setattr(wg, "_Propagator", Counting)
        fmap = wg.run_simulation(crystal, pump, grid, ens, n_lambda=6, n_alpha=4,
                                 target_photons=target)
        return fmap, builds, fields

    def test_probe_is_a_fresh_propagation_at_the_returned_l_nl(self, crystal, pump,
                                                                small):
        ens = wg.EnsembleSpec(n_realizations=5, seed=41)
        cal = wg.calibrate_gain(self.TARGET, crystal, pump, small, ens)
        batch = np.stack([wg.sample_vacuum(small, wg.vacuum_rng(41, r))
                          for r in range(2)])
        fresh = wg._Propagator(crystal, pump, small).run_batch(batch, cal.l_nl)
        np.testing.assert_array_equal(cal.probe, wg._mag_squared(fresh))

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("n_real", [1, 2, 5])
    def test_matches_uncalibrated_run_at_the_returned_l_nl(self, crystal, pump, small,
                                                            paired, n_real):
        ens = wg.EnsembleSpec(n_realizations=n_real, seed=41)
        opts = dict(n_lambda=6, n_alpha=4, paired_subtraction=paired)
        got = wg.run_simulation(crystal, pump, small, ens, target_photons=self.TARGET,
                                **opts)
        cal = wg.calibrate_gain(self.TARGET, crystal, pump, small, ens)
        want = wg.run_simulation(crystal, replace(pump, l_nl=cal.l_nl), small, ens,
                                 **opts)
        for key in ("flux", "stderr"):
            np.testing.assert_allclose(getattr(got, key), getattr(want, key),
                                       rtol=1e-12, atol=0, err_msg=key)
        np.testing.assert_array_equal(got.n_modes, want.n_modes)
        assert got.metadata["total_photons"] == pytest.approx(
            want.metadata["total_photons"], rel=1e-12)
        assert got.metadata["calibration"]["reused_realizations"] == min(2, n_real)

    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("n_real", [1, 2, 5])
    def test_propagates_each_realization_once(self, monkeypatch, crystal, pump, small,
                                              bbo29, seeded_grid, n_real, seeded):
        ens = wg.EnsembleSpec(n_realizations=n_real, seed=41)
        if seeded:
            fmap, _, fields = self._counted_run(monkeypatch, bbo29, pump, seeded_grid,
                                                ens, SEEDED_TARGET)
        else:
            fmap, _, fields = self._counted_run(monkeypatch, crystal, pump, small, ens)
        cal = fmap.metadata["calibration"]
        n_probes = cal["n_probes"]
        # from gain 1 the search takes several probes here; seeded, its first
        # probe runs at the predicted gain
        assert (cal["trace"][0]["gain"] != 1.0) == seeded
        assert seeded or n_probes >= 2
        reused = min(2, n_real)
        assert sum(fields) == n_probes * reused + n_real - reused

    def test_builds_one_propagator(self, monkeypatch, crystal, pump, small):
        ens = wg.EnsembleSpec(n_realizations=3, seed=41)
        _, builds, _ = self._counted_run(monkeypatch, crystal, pump, small, ens)
        assert len(builds) == 1


class TestRunSimulation:
    def test_fixed_seed_reproducibility(self, crystal, pump, grid):
        ens = wg.EnsembleSpec(n_realizations=3, seed=7)
        m1 = wg.run_simulation(crystal, pump, grid, ens, n_lambda=8, n_alpha=5)
        m2 = wg.run_simulation(crystal, pump, grid, ens, n_lambda=8, n_alpha=5)
        assert np.array_equal(m1.flux, m2.flux, equal_nan=True)
        assert np.array_equal(m1.stderr, m2.stderr, equal_nan=True)
        assert np.array_equal(m1.n_modes, m2.n_modes)
        assert np.array_equal(m1.lambda_edges_nm, m2.lambda_edges_nm)
        assert np.array_equal(m1.alpha_edges_deg, m2.alpha_edges_deg)

    def test_mirror_symmetry_of_mode_flux(self, crystal, pump, grid):
        ens = wg.EnsembleSpec(n_realizations=60, seed=13)
        flux, stderr, _, _ = wg._ensemble_flux(wg._Propagator(crystal, pump, grid),
                                               pump.l_nl, ens, paired=True)
        # compare kx -> -kx pairs (FFT layout: index i <-> index n-i)
        f_pos = flux[:, 1:, :]
        f_neg = flux[:, :0:-1, :]
        se_pos = stderr[:, 1:, :]
        se_neg = stderr[:, :0:-1, :]
        diff = np.abs(f_pos - f_neg)
        bound = 3 * np.sqrt(se_pos**2 + se_neg**2) + 1e-6
        assert np.mean(diff < bound) > 0.99

    def test_step_phase_halves_with_n_z(self, crystal, pump, grid):
        ens = wg.EnsembleSpec(n_realizations=1, seed=3)
        phases = [wg.run_simulation(crystal, pump, replace(grid, n_z=n_z), ens,
                                    n_lambda=4, n_alpha=3).metadata["max_step_phase_rad"]
                  for n_z in (10, 20)]
        assert phases[0] > 0
        assert phases[1] == pytest.approx(phases[0] / 2, rel=1e-12)

    def test_window_and_matched_angle_recorded(self, pump, grid):
        ens = wg.EnsembleSpec(n_realizations=1, seed=3)
        crystal = dm.make_crystal(np.deg2rad(35.0), 2e-3, 400e-9)
        meta = wg.run_simulation(crystal, pump, replace(grid, n_z=4), ens,
                                 n_lambda=4, n_alpha=3).metadata
        _, alpha = wg._mode_lambda_alpha(crystal, grid)
        assert meta["window_max_alpha_deg"] == np.nanmax(alpha)
        omega0 = crystal.pump_center_omega / 2.0
        k0 = float(pmm.perfect_curve(omega0, crystal))
        expected = np.degrees(pmm.exterior_angle(omega0, k0))
        assert meta["matched_alpha_deg"] == pytest.approx(expected, rel=1e-12)
        # the cut below the degenerate angle has no ring at the grid center
        below = dm.make_crystal(np.deg2rad(29.0), 2e-3, 400e-9)
        meta = wg.run_simulation(below, pump, replace(grid, n_z=4), ens,
                                 n_lambda=4, n_alpha=3).metadata
        assert meta["matched_alpha_deg"] is None

    def test_grid_centred_on_half_the_crystal_pump(self, pump, grid):
        # a 405 nm pump puts the grid carrier at 810 nm; a 4.8 ps window
        # keeps the band within +-8 nm of it, clear of 800 nm
        crystal = dm.make_crystal(np.deg2rad(31.3), 2e-3, 405e-9)
        fmap = wg.run_simulation(crystal, pump, replace(grid, span_t=4800e-15, n_z=4),
                                 wg.EnsembleSpec(n_realizations=1, seed=3),
                                 n_lambda=4, n_alpha=3)
        lo, hi = fmap.lambda_edges_nm[[0, -1]]
        assert 800.0 < lo < 810.0 < hi < 820.0


GOLDEN_MAP = Path(__file__).parent / "data" / "wigner_small.csv"
GOLDEN_PAIRED_MAP = Path(__file__).parent / "data" / "wigner_small_paired.csv"


class TestGoldenOutput:
    def _run(self, crystal, pump, grid, paired):
        return wg.run_simulation(crystal, replace(pump, l_nl=2e-3), grid,
                                 wg.EnsembleSpec(n_realizations=4, seed=20260),
                                 n_lambda=8, n_alpha=5, paired_subtraction=paired)

    def test_matches_reference_map(self, crystal, pump, grid):
        # written with the out-of-place split step and complex tables, floats
        # as repr; the in-place step only reorders rounding
        _assert_matches_golden(self._run(crystal, pump, grid, False), GOLDEN_MAP)

    def test_matches_reference_paired_map(self, crystal, pump, grid):
        # the paired estimator subtracts each entrance |a|^2, which must be
        # read before the batch propagates in place; floats as repr
        _assert_matches_golden(self._run(crystal, pump, grid, True), GOLDEN_PAIRED_MAP)


def _assert_matches_golden(fmap, path):
    """Every bin's center, flux, stderr (to 1e-10) and population equal the
    CSV at path."""
    with open(path, newline="") as fh:
        ref = list(csv.DictReader(fh))
    assert len(ref) == fmap.flux.size
    lam, alpha = np.meshgrid(fmap.lambda_centers_nm, fmap.alpha_centers_deg,
                             indexing="ij")
    for key, got in (("lambda_nm", lam), ("alpha_deg", alpha),
                     ("flux", fmap.flux), ("stderr", fmap.stderr)):
        want = np.array([float(r[key]) for r in ref])
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-10, atol=0, err_msg=key)
    assert [int(r["n_modes"]) for r in ref] == fmap.n_modes.ravel().tolist()


_ORACLE_REL_TOL = 0.05


def perturbative_bin_means(fmap: wg.FluxMap, grid: wg.SimulationGrid,
                           crystal: dm.CrystalSpec, pump: pt.PumpSpec,
                           modes_per_bin: int = 6,
                           min_modes: int = 20) -> np.ndarray:
    """Single-pair quadrature prediction for each bin of a FluxMap.

    Evaluates the exact-sinc^2 quadrature (at _ORACLE_REL_TOL) at a
    deterministic subsample of each bin's member modes, all in one call,
    converts to per-mode occupation with the grid's spectral cell volume,
    and averages.  Bins with fewer than min_modes members come back NaN.
    This is the independent low-gain reference the stochastic flux is
    checked against.
    """
    w, kx, ky = wg._mode_frequencies(crystal, grid)
    w3, kx3, ky3 = (a.ravel() for a in np.meshgrid(w, kx, ky, indexing="ij"))

    # numpy's histogram rule: the top edge belongs to the last bin, and
    # values outside the edges or NaN fall in no bin
    index = []
    for x, edges in zip(wg._mode_lambda_alpha(crystal, grid),
                        (fmap.lambda_edges_nm, fmap.alpha_edges_deg)):
        i = np.searchsorted(edges, x, side="right") - 1
        i[x == edges[-1]] -= 1
        index.append(np.where((i >= 0) & (i < len(edges) - 1), i, -1))
    li, ai = index
    bins = np.where((li >= 0) & (ai >= 0), li * fmap.flux.shape[1] + ai, -1)
    order = np.argsort(bins, kind="stable")  # each bin's members in mode order
    bounds = np.searchsorted(bins[order], np.arange(fmap.flux.size + 1))

    sampled, take = [], []  # bins with min_modes members, and their sampled modes
    for b in range(fmap.flux.size):
        members = order[bounds[b]:bounds[b + 1]]
        if members.size >= min_modes:
            sampled.append(b)
            take.append(members[np.linspace(0, members.size - 1,
                                            min(modes_per_bin, members.size), dtype=int)])
    pred = np.full(fmap.flux.shape, np.nan)
    if not sampled:
        return pred
    modes = np.concatenate(take)
    flux = pt.flux_quadrature_exact(dm.SpectralPoint(w3[modes], kx3[modes], ky3[modes]),
                                    crystal, pump, _ORACLE_REL_TOL)[0]
    ends = np.cumsum([len(t) for t in take])
    pred.flat[sampled] = grid.mode_volume * np.array(
        [np.mean(f) for f in np.split(flux, ends[:-1])])
    return pred


class TestLowGainOracle:
    def test_bins_hold_the_same_modes_as_the_map(self, crystal, pump, grid):
        # the top wavelength and angle edges belong to the last bins in both
        # the map and the oracle, so the fullest bin of the last wavelength
        # row reaches min_modes when set to its map population
        fmap = wg.azimuthal_average(np.zeros(grid.shape), np.zeros(grid.shape), crystal,
                                    grid, n_lambda=10, n_alpha=6)
        fullest = int(fmap.n_modes[-1].max())
        pred = perturbative_bin_means(fmap, grid, crystal, pump, modes_per_bin=1,
                                      min_modes=fullest)
        np.testing.assert_array_equal(np.isfinite(pred), fmap.n_modes >= fullest)

    def test_binned_flux_matches_quadrature(self, crystal, pump, grid):
        # gain L/l_nl = 0.1: every well-populated bin agrees with the
        # single-pair quadrature within 3 SE plus 25% systematic
        ens = wg.EnsembleSpec(n_realizations=150, seed=12345)
        fmap = wg.run_simulation(crystal, pump, grid, ens, n_lambda=10,
                                 n_alpha=6, paired_subtraction=True)
        pred = perturbative_bin_means(fmap, grid, crystal, pump,
                                      modes_per_bin=5, min_modes=20)
        ok = ~np.isnan(pred)
        assert ok.sum() >= 30
        w = fmap.flux[ok]
        q = pred[ok]
        se = fmap.stderr[ok]
        assert np.all(np.abs(w - q) <= 3 * se + 0.25 * q)
        # aggregate normalization is much sharper than any single bin
        n_modes = fmap.n_modes[ok]
        total_w = float(np.sum(w * n_modes))
        total_q = float(np.sum(q * n_modes))
        assert total_w == pytest.approx(total_q, rel=0.15)


def _neg_k(a):
    """a at -k for every mode k (indices mod the grid) of the last three axes."""
    return np.roll(a[..., ::-1, ::-1, ::-1], 1, axis=(-3, -2, -1))


class TestPairOracle:
    """A pump much wider than the window puts the whole pump in the spectral
    cell q = 0, so its position field is uniform and the nonlinear step
    couples mode k only to -k.  Each pair (a_k, a*_-k) then follows the
    Strang splitting of the plane-wave parametric amplifier, a product of
    2x2 matrices that needs no FFT; the engine must reproduce it to
    rounding at any gain."""

    @pytest.mark.parametrize("gain", [0.1, 3.0, 8.0])
    @on_grids
    def test_run_batch_matches_pair_recursion(self, crystal, grid, gain):
        wide = pt.PumpSpec(tau_p=np.inf, w_p=np.inf, l_nl=crystal.length / gain)
        prop = wg._Propagator(crystal, wide, grid)
        peak = prop.pump0.flat[0]
        assert np.max(np.abs(prop.pump0.ravel()[1:])) <= 1e-15 * abs(peak)

        probes = np.ones((2,) + grid.shape) * np.array([1.0, 1j])[:, None, None, None]
        half_linear = np.exp(0.5j * prop.phase_sig * prop.dz)
        want = probes * half_linear
        m = abs(peak) / np.sqrt(grid.n_modes) * prop.dz / wide.l_nl
        for step in range(grid.n_z):
            # the uniform pump's phase at z = (step + 1/2) dz
            s = np.sinh(m) * np.exp(1j * (np.angle(peak) + prop.phase_pmp.flat[0]
                                          * (step + 0.5) * prop.dz))
            want = np.cosh(m) * want + s * np.conj(_neg_k(want))
            if step < grid.n_z - 1:
                want = want * np.exp(1j * prop.phase_sig * prop.dz)
        want = want * half_linear

        got = prop.run_batch(probes.copy(), wide.l_nl)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
