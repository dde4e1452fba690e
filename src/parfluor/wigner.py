"""Stochastic phase-space simulation of the high-gain fluorescence.

The quantum field is represented by an ensemble of classical 3D spectral
amplitudes whose input statistics are half a photon of Gaussian noise per
mode.  Each realization is propagated through the pumped crystal with a
Strang split-step scheme:

* linear half-steps multiply every spectral mode by its exact dispersive
  phase (no Taylor truncation of k_z);
* the nonlinear step acts pointwise in the (t, x, y) domain, where the
  coupling to the undepleted pump is the local two-quadrature amplification
  alpha -> cosh(|g| dz) alpha + (g/|g|) sinh(|g| dz) alpha*, the exact
  solution for a locally constant pump.

A common reference phase (carrier wavevector plus the pump's group slowness
and transverse walk-off slope, one share per fluorescence photon) is removed
from both fields.  The pair mismatch only ever enters through phase
differences, which the shift leaves invariant; it keeps the envelopes
centered in the periodic simulation window.

Mean photon numbers are ensemble averages of |alpha|^2 minus the input
noise: either its expectation, half a photon per mode (vacuum-half), or each
realization's own entrance |alpha|^2 (paired).  They are always binned over
(wavelength, exterior angle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from . import dispersion as dm
from . import perturbative as pt
from . import phasematch as pmm
from .dispersion import C_LIGHT, TWO_PI
from .errors import GridUnderresolved, NotConverged

_FFT_WORKERS = -1  # scipy interprets -1 as "all cores"


# ---------------------------------------------------------------------------
# grids and fields


@dataclass(frozen=True)
class SimulationGrid:
    """Discrete (t, x, y) <-> (omega, kx, ky) simulation box around the
    carrier _grid_center(crystal); the fields on it are complex128.

    n_t, n_x, n_y : mode counts per axis, powers of two
    span_t [s], span_x, span_y [m] : window sizes (periodic)
    n_z : number of split-step slices through the crystal
    """

    n_t: int
    n_x: int
    n_y: int
    span_t: float
    span_x: float
    span_y: float
    n_z: int

    def __post_init__(self):
        for n, name in ((self.n_t, "n_t"), (self.n_x, "n_x"), (self.n_y, "n_y")):
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError(f"{name} must be a power of two >= 2, got {n}")
        if not (self.span_t > 0 and self.span_x > 0 and self.span_y > 0):
            raise ValueError("window spans must be positive")
        if self.n_z < 1:
            raise ValueError("n_z must be >= 1")

    @property
    def shape(self):
        return (self.n_t, self.n_x, self.n_y)

    @property
    def n_modes(self):
        return self.n_t * self.n_x * self.n_y

    @property
    def mode_volume(self):
        """Spectral cell d(omega) dkx dky, the discrete-mode <-> continuum
        conversion factor for occupation numbers."""
        return TWO_PI**3 / (self.span_t * self.span_x * self.span_y)


@dataclass(frozen=True)
class EnsembleSpec:
    n_realizations: int
    seed: int = 0

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")


def to_position(field_data, overwrite_x=False):
    return sfft.ifftn(field_data, axes=(-3, -2, -1), norm="ortho",
                      overwrite_x=overwrite_x, workers=_FFT_WORKERS)


def to_spectral(field_data, overwrite_x=False):
    return sfft.fftn(field_data, axes=(-3, -2, -1), norm="ortho",
                     overwrite_x=overwrite_x, workers=_FFT_WORKERS)


def vacuum_rng(seed: int, realization: int) -> np.random.Generator:
    """Counter-based stream for one realization; identical (seed, index)
    pairs give bit-identical draws regardless of evaluation order."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, realization])))


def sample_vacuum(grid: SimulationGrid, rng: np.random.Generator) -> np.ndarray:
    """Spectral field of half a photon of complex-Gaussian noise per mode:
    <|a|^2> = 1/2, real and imaginary quadratures each with variance 1/4."""
    draw = rng.standard_normal(size=(2,) + grid.shape)
    return 0.5 * (draw[0] + 1j * draw[1])


# ---------------------------------------------------------------------------
# propagation


def _grid_center(crystal: dm.CrystalSpec) -> float:
    """The grid's carrier omega0 [rad/s]: half the crystal's pump carrier."""
    return crystal.pump_center_omega / 2.0


def _mode_frequencies(crystal: dm.CrystalSpec, grid: SimulationGrid):
    """Angular frequencies and transverse wavevectors of the grid's modes
    (1D each, in FFT order) around _grid_center(crystal).

    The stored field carries e^{-i W t} for envelope offset W and
    e^{+i k x} transversally; with position = ifftn(spectral) this maps
    the time axis to the negated FFT frequencies.
    """
    w_env = -TWO_PI * sfft.fftfreq(grid.n_t, grid.span_t / grid.n_t)
    kx = TWO_PI * sfft.fftfreq(grid.n_x, grid.span_x / grid.n_x)
    ky = TWO_PI * sfft.fftfreq(grid.n_y, grid.span_y / grid.n_y)
    return _grid_center(crystal) + w_env, kx, ky


def _pump_spectrum0(pump: pt.PumpSpec, grid: SimulationGrid) -> np.ndarray:
    """Gaussian pump envelope at the entrance face, in the spectral domain;
    its peak sits on the window's center cell."""
    t, x, y = ((np.arange(n) - n // 2) * (span / n) for n, span in
               ((grid.n_t, grid.span_t), (grid.n_x, grid.span_x), (grid.n_y, grid.span_y)))
    envelope = (np.exp(-0.5 * (t / pump.tau_p) ** 2)[:, None, None]
                * np.exp(-0.5 * (x / pump.w_p) ** 2)[None, :, None]
                * np.exp(-0.5 * (y / pump.w_p) ** 2)[None, None, :])
    return to_spectral(envelope.astype(np.complex128))


class _Propagator:
    """The split-step loop for one configuration, and what its tables are
    built from: the phase rates phase_sig and phase_pmp [rad/m] of every
    mode in the common reference frame, and the entrance pump spectrum
    pump0.  None depends on pump.l_nl, which each propagation passes."""

    def __init__(self, crystal: dm.CrystalSpec, pump: pt.PumpSpec,
                 grid: SimulationGrid):
        self.grid = grid
        self.dz = crystal.length / grid.n_z

        omega0, omega_p = _grid_center(crystal), crystal.pump_center_omega
        w_sig, kx, ky = _mode_frequencies(crystal, grid)
        w_pmp = omega_p + (w_sig - omega0)
        kx3 = kx[None, :, None]
        ky3 = ky[None, None, :]

        kz_sig = dm.kz_signal_grid(w_sig[:, None, None], kx3, ky3, crystal,
                                   allow_evanescent=True)
        if np.any(np.isnan(kz_sig)):
            raise GridUnderresolved(
                "transverse window contains evanescent fluorescence modes; "
                "enlarge span_x/span_y or reduce n_x/n_y")
        kz_pmp = dm.kz_pump_grid(w_pmp[:, None, None], kx3, ky3, crystal)

        # common reference: carrier wavevector plus the pump's group slowness
        # and transverse walk-off, one share per fluorescence photon; the
        # pair mismatch is invariant under this shift
        k_ref = dm.kz_signal_grid(omega0, 0.0, 0.0, crystal)
        beta_ref, rho_ref, _ = dm.kz_slopes("pump", omega_p, 0.0, 0.0, crystal)

        self.phase_sig = (kz_sig - k_ref
                          - beta_ref * (w_sig[:, None, None] - omega0)
                          - rho_ref * kx3)
        self.phase_pmp = (kz_pmp - 2.0 * k_ref
                          - beta_ref * (w_pmp[:, None, None] - omega_p)
                          - rho_ref * kx3)
        self.pump0 = _pump_spectrum0(pump, grid)

    def steps(self, l_nl):
        """Yield the pointwise step's tables (cosh m, g_dz sinh(m)/m) at
        nonlinear length l_nl for each of the n_z steps: g_dz = g dz is the
        pump's position field at z = (j + 1/2) dz, where step j samples it,
        times dz/l_nl, and m = |g_dz|; the second is (g/|g|) sinh(|g| dz)."""
        pump_spec = self.pump0 * np.exp(0.5j * self.phase_pmp * self.dz)
        pump_step = np.exp(1.0j * self.phase_pmp * self.dz)
        for step in range(self.grid.n_z):
            if step:
                pump_spec *= pump_step
            g_dz = to_position(pump_spec)
            g_dz *= self.dz / l_nl
            m = np.abs(g_dz)
            ch = np.cosh(m)
            sh = np.sinh(m)
            # where m = 0, g_dz is 0 too, so the skipped entries never matter
            g_dz *= np.divide(sh, m, out=sh, where=m > 0)
            yield ch, g_dz

    def run_batch(self, batch: np.ndarray, l_nl: float) -> np.ndarray:
        """Propagate a (realizations, n_t, n_x, n_y) complex128 spectral
        batch to z = L at nonlinear length l_nl.

        The caller's array is consumed: the batch propagates in place, and
        the exit field comes back in its memory.  Besides it a step holds one
        conjugate scratch buffer: the FFTs write into their input, and the
        pointwise step runs in place.
        """
        a = batch
        conj = np.empty_like(a)
        half_linear = np.exp(0.5j * self.phase_sig * self.dz)
        full_linear = np.exp(1.0j * self.phase_sig * self.dz)
        a *= half_linear
        for step, (ch, psh) in enumerate(self.steps(l_nl)):
            pos = to_position(a, overwrite_x=True)
            np.conjugate(pos, out=conj)
            conj *= psh
            pos *= ch
            pos += conj
            a = to_spectral(pos, overwrite_x=True)
            if step < self.grid.n_z - 1:
                a *= full_linear
        a *= half_linear
        return a


# ---------------------------------------------------------------------------
# flux estimation


def _mag_squared(data: np.ndarray) -> np.ndarray:
    """|a|^2 as re^2 + im^2 (no sqrt roundtrip)."""
    return data.real * data.real + data.imag * data.imag


class _FluxAccumulator:
    """Streaming per-mode mean and standard error over realizations.

    Works on deviations from each mode's first value, whose per-chunk means
    and sums of squared deviations (M2) are merged by Chan's parallel update.
    sum(x^2) - sum(x)^2/n would instead cancel catastrophically where the
    mean is large against the spread, as at high gain; the shift keeps the
    merged means small there, so their rounding does not enter M2 either.
    """

    def __init__(self, shape):
        self.n = 0
        self.shift = None
        self.dev_mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, values: np.ndarray) -> None:
        if self.shift is None:
            self.shift = values[0].copy()
        dev = values - self.shift
        n_chunk = dev.shape[0]
        mean_chunk = dev.mean(axis=0)
        dev -= mean_chunk
        m2_chunk = np.square(dev, out=dev).sum(axis=0)
        n = self.n + n_chunk
        delta = mean_chunk - self.dev_mean
        self.dev_mean += delta * (n_chunk / n)
        self.m2 += m2_chunk + delta * delta * (self.n * n_chunk / n)
        self.n = n

    def mean(self):
        return self.shift + self.dev_mean

    def stderr(self):
        if self.n < 2:
            return np.full(self.m2.shape, np.nan)
        return np.sqrt(self.m2 / (self.n - 1) / self.n)


# ---------------------------------------------------------------------------
# (wavelength, angle) maps


@dataclass
class FluxMap:
    """Mean photon flux binned over (wavelength [nm], exterior angle [deg]).

    flux/stderr/n_modes have shape (n_lambda_bins, n_alpha_bins); empty bins
    hold NaN flux.  metadata holds what run_simulation computed besides the
    map (gain, estimator, total, discretization diagnostics, calibration);
    the configuration that reproduces it is the caller's to record.
    """

    lambda_edges_nm: np.ndarray
    alpha_edges_deg: np.ndarray
    flux: np.ndarray
    stderr: np.ndarray
    n_modes: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def lambda_centers_nm(self):
        return 0.5 * (self.lambda_edges_nm[:-1] + self.lambda_edges_nm[1:])

    @property
    def alpha_centers_deg(self):
        return 0.5 * (self.alpha_edges_deg[:-1] + self.alpha_edges_deg[1:])


def _mode_lambda_alpha(crystal: dm.CrystalSpec, grid: SimulationGrid):
    """Wavelength [nm] and exterior angle [deg] of every grid mode, raveled."""
    w, kx, ky = _mode_frequencies(crystal, grid)
    w3 = w[:, None, None]
    kperp = np.sqrt(kx[None, :, None] ** 2 + ky[None, None, :] ** 2)
    lam_nm = TWO_PI * C_LIGHT / w3 * 1e9 * np.ones_like(kperp)
    return lam_nm.ravel(), np.degrees(pmm.exterior_angle(w3, kperp)).ravel()


def azimuthal_average(flux: np.ndarray, stderr: np.ndarray, crystal: dm.CrystalSpec,
                      grid: SimulationGrid, n_lambda: int = 48,
                      n_alpha: int = 40) -> FluxMap:
    """Bin per-mode flux over (wavelength, exterior angle).

    The bins span the wavelengths of the grid's modes and the angles from 0
    to the largest exterior angle among them.  Bin value is the mean over
    member modes; per-mode standard errors propagate as independent
    contributions, and a NaN one (a single realization) makes its bin's NaN.
    Modes beyond the vacuum light cone (cannot refract out) are excluded.
    """
    lam, alpha = _mode_lambda_alpha(crystal, grid)
    ok = ~np.isnan(alpha)
    lam_edges = np.linspace(lam[ok].min(), lam[ok].max(), n_lambda + 1)
    alpha_edges = np.linspace(0.0, alpha[ok].max(), n_alpha + 1)
    # numpy's rules: the top edge of each axis belongs to its last bin, and
    # the NaN angles of modes beyond the light cone fall in no bin
    counts, sums, errsq = (
        np.histogram2d(lam, alpha, [lam_edges, alpha_edges], weights=weights)[0]
        for weights in (None, flux.ravel(), stderr.ravel() ** 2))

    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        err = np.where(counts > 0, np.sqrt(errsq) / np.maximum(counts, 1), np.nan)

    return FluxMap(
        lambda_edges_nm=lam_edges,
        alpha_edges_deg=alpha_edges,
        flux=mean,
        stderr=err,
        n_modes=counts.astype(int),
    )


# ---------------------------------------------------------------------------
# ensemble runs and gain calibration


@np.errstate(over="ignore", invalid="ignore")  # the total is checked instead
def _ensemble_flux(prop, l_nl, ensemble, paired=False, first=None):
    """Propagate the ensemble at nonlinear length l_nl with a _Propagator,
    returning per-mode (flux, stderr, total, raw).

    Realizations go through in batches of up to 32 and at most about
    256 MB.  raw is the exit-face |a|^2 (float64, one row per realization)
    of the first batch if that batch is the whole ensemble, else None.
    first, the raw of a smaller ensemble with the same seed at the same l_nl
    (a calibration probe), opens the first batch in place of propagating
    those realizations again; their entrance fields are drawn again from
    vacuum_rng.
    paired=True subtracts each realization's own input |a|^2 instead of the
    ensemble constant 1/2; identical in expectation (dispersion preserves
    per-mode magnitudes), far lower variance at small gain.
    Raises NotConverged when the photon numbers are not finite.
    """
    grid = prop.grid
    chunk_size = int(np.clip(256e6 // (16 * grid.n_modes), 1, 32))
    n_first = 0 if first is None else len(first)
    acc = _FluxAccumulator(grid.shape)
    for r in range(0, ensemble.n_realizations, chunk_size):
        stop = min(r + chunk_size, ensemble.n_realizations)
        batch = np.empty((stop - r,) + grid.shape, dtype=np.complex128)
        for i, k in enumerate(range(r, stop)):
            batch[i] = sample_vacuum(grid, vacuum_rng(ensemble.seed, k))
        # the entrance |a|^2, taken before run_batch overwrites the batch
        entrance = _mag_squared(batch) if paired else None
        todo = batch[max(n_first - r, 0):]
        mags = _mag_squared(prop.run_batch(todo, l_nl) if len(todo) else todo)
        if r < n_first:
            mags = np.concatenate([first[r:stop], mags])
        raw = mags if r == 0 else None
        if paired:
            mags = np.subtract(mags, entrance, out=entrance)
        acc.add(mags)
    flux = acc.mean() - (0.0 if paired else 0.5)
    total = float(flux.sum())
    if not np.isfinite(total):  # NaN or inf in any mode mean reaches the total
        raise NotConverged(f"gain L/l_nl = {prop.dz * grid.n_z / l_nl:.4g} overflows "
                           "the amplified field: the photon numbers are not finite")
    return flux, acc.stderr(), total, raw


_PROBE_REALIZATIONS = 2  # ensemble size of one calibration probe
_CALIB_REL_TOL = 0.2  # accepted relative distance of a probe's total from the target
_MAX_PROBES = 30


@dataclass(frozen=True)
class CalibrationResult:
    l_nl: float
    total_photons: float
    n_probes: int
    trace: tuple  # the {"gain": L/l_nl, "total"} of each probe, in order
    # the _Propagator of all probes, and the last probe's raw _ensemble_flux
    propagator: _Propagator = field(repr=False, compare=False)
    probe: np.ndarray | None = field(repr=False, compare=False)

    def summary(self) -> dict:
        """The manifest's calibration block: the accepted gain and total, and
        every probe."""
        return {"gain": self.trace[-1]["gain"], "total_photons": self.total_photons,
                "n_probes": self.n_probes, "trace": list(self.trace)}


def calibrate_gain(target_photons: float, crystal: dm.CrystalSpec,
                   pump: pt.PumpSpec, grid: SimulationGrid,
                   ensemble: EnsembleSpec) -> CalibrationResult:
    """Adjust the nonlinear length until the total photon number meets the
    target within _CALIB_REL_TOL.

    Probes use the first _PROBE_REALIZATIONS realizations of the ensemble
    (common random numbers), so the total is deterministic and monotone in
    the gain; the search brackets in log-gain and bisects.  All probes share
    one _Propagator, and the returned l_nl is the last probe's, so its
    realizations are the ensemble's at that gain.  Raises NotConverged after
    _MAX_PROBES.
    """
    if target_photons <= 0:
        raise ValueError("target_photons must be positive")
    prop = _Propagator(crystal, pump, grid)
    probe_ens = EnsembleSpec(min(_PROBE_REALIZATIONS, ensemble.n_realizations),
                             ensemble.seed)
    trace = []

    def probe_at(log_gain):
        l_nl = crystal.length / float(np.exp(log_gain))
        _, _, total, probe = _ensemble_flux(prop, l_nl, probe_ens, paired=True)
        trace.append({"gain": crystal.length / l_nl, "total": total})
        return l_nl, total, probe

    x = 0.0  # log(L / l_nl) = log-gain, starting at gain 1
    lo = hi = None
    for _ in range(_MAX_PROBES):
        l_nl, total, probe = probe_at(x)
        if total > 0 and abs(total - target_photons) <= _CALIB_REL_TOL * target_photons:
            return CalibrationResult(l_nl, total, len(trace), tuple(trace), prop, probe)
        if len(trace) == 1 and total > 0:
            # quadratic low-gain scaling gives a useful first jump
            x = float(np.clip(x + 0.5 * np.log(target_photons / total), x - 2.0, x + 2.0))
        elif total < target_photons:
            lo = x
            x = 0.5 * (lo + hi) if hi is not None else x + np.log(4.0)
        else:
            hi = x
            x = 0.5 * (lo + hi) if lo is not None else x - np.log(4.0)
    raise NotConverged(
        f"gain calibration missed {target_photons:.3g} within "
        f"{_CALIB_REL_TOL:.0%} after {_MAX_PROBES} probes")


def run_simulation(crystal: dm.CrystalSpec, pump: pt.PumpSpec,
                   grid: SimulationGrid, ensemble: EnsembleSpec,
                   n_lambda: int = 48, n_alpha: int = 40,
                   target_photons: float | None = None,
                   paired_subtraction: bool = False) -> FluxMap:
    """Full pipeline: (calibrate,) sample, propagate, estimate, bin.

    Deterministic for a fixed EnsembleSpec; the returned map's metadata
    records the gain, the estimator, the total and any calibration.  A
    calibrated run reuses the calibration's _Propagator and last probe.
    """
    calibration = first = None
    l_nl = pump.l_nl
    if target_photons is None:
        prop = _Propagator(crystal, pump, grid)
    else:
        calibration = calibrate_gain(target_photons, crystal, pump, grid, ensemble)
        l_nl = calibration.l_nl
        prop, first = calibration.propagator, calibration.probe
    flux, stderr, total, _ = _ensemble_flux(prop, l_nl, ensemble, paired_subtraction,
                                            first)
    omega0 = _grid_center(crystal)
    alpha = pmm.exterior_angle(omega0, pmm.perfect_curve(omega0, crystal))
    fmap = azimuthal_average(flux, stderr, crystal, grid, n_lambda, n_alpha)
    fmap.metadata = {
        "gain": crystal.length / l_nl,
        "estimator": "paired" if paired_subtraction else "vacuum-half",
        "total_photons": total,
        # largest signal phase one split step adds; it wraps at 2 pi
        "max_step_phase_rad": float(np.max(np.abs(prop.phase_sig))) * prop.dz,
        "window_max_alpha_deg": float(fmap.alpha_edges_deg[-1]),
        # exterior angle of the matched ring at the grid center; None where
        # no matched mode there leaves the crystal (NaN fails the test)
        "matched_alpha_deg": None if np.isnan(alpha) else float(np.degrees(alpha)),
    }
    if calibration is not None:
        # the probe's raw is None where its two realizations took two batches
        fmap.metadata["calibration"] = {
            **calibration.summary(),
            "reused_realizations": 0 if first is None else len(first)}
    return fmap
