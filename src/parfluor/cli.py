"""Command-line front end: JSON configuration, subcommands, file emission.

Interface units: wavelengths nm, durations fs, widths um, angles deg; all
conversions to SI happen at this boundary.  Every output directory receives
a manifest recording the resolved configuration, its hash, the seed, the
package version and wall time, sufficient to reproduce the files exactly.
The engines return arrays; this module alone formats them (CSV tables with
NaN as an empty field, and a PGM heatmap).  Output files are written to a
temporary name and atomically renamed, so a failing run never leaves
partial files.

Exit codes: 0 success, 1 partial sweep failure, 2 configuration error,
3 computation error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from . import dispersion as dm
from . import perturbative as pt
from . import phasematch as pmm
from .errors import ConfigError, ParfluorError

# the Wigner engine loads scipy.fft: only the functions that propagate import it
if TYPE_CHECKING:
    from . import wigner as wg

# the four crystal cuts crossed with the three pump settings of the
# reference parameter matrix: (theta_deg, tau_fs, w_um)
DEFAULT_SWEEP_CELLS = [
    [theta, tau, w]
    for theta in (29.0, 31.3, 35.0, 40.0)
    for tau, w in ((60.0, 80.0), (60.0, 160.0), (120.0, 80.0))
]

DEFAULTS = {
    "output_dir": "out",
    "crystal": {
        "material": "bbo",
        "theta_deg": 31.3,
        "length_mm": 2.0,
        "pump_wavelength_nm": 400.0,
    },
    "pump": {"tau_fs": 60.0, "w_um": 80.0, "l_nl_mm": 20.0},
    "grid": {
        "n_t": 128, "n_x": 64, "n_y": 64,
        "span_t_factor": 8.0, "span_xy_factor": 8.0, "n_z": 200,
    },
    "ensemble": {"realizations": 10, "seed": 20240101},
    "phasematch": {"lambda_min_nm": 500.0, "lambda_max_nm": 1200.0, "n_points": 256},
    "pert_flux": {
        "lambda_min_nm": 500.0, "lambda_max_nm": 1200.0, "n_points": 121,
        "method": "closed_form", "quad_rel_tol": pt.QUAD_REL_TOL,
    },
    "wigner": {
        "target_photons": None, "lambda_bins": 48, "alpha_bins": 40,
        "paired_subtraction": False,
    },
    "sweep": {"cells": DEFAULT_SWEEP_CELLS, "jobs": 1},
}


# ---------------------------------------------------------------------------
# configuration handling


# the types a setting may take for each type of its default, and their name
_KINDS = {bool: (bool, "true or false"), int: (int, "an integer"),
          float: ((int, float), "a number"), str: (str, "a string"), list: (list, "a list"),
          type(None): ((int, float, type(None)), "a number or null")}
# the numbers that must be > 0; a null target stays allowed
_POSITIVE = ("quad_rel_tol", "target_photons", "pump_wavelength_nm", "lambda_min_nm",
             "lambda_max_nm")


def _check(override: dict, defaults: dict = DEFAULTS, path: str = "") -> None:
    """Raise ConfigError unless each setting of override is a key of defaults
    with a value of its default's type; an int stands for a float, a number
    for a null, numbers are within float range (not NaN, inf or a huge int),
    counts are >= 1 (seeds >= 0), and tolerances, targets and wavelengths > 0."""
    for key, value in override.items():
        here = f"{path}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown configuration key '{here}'")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"'{here}' must be a table of settings")
            _check(value, default, here + ".")
            continue
        kind = type(default)
        allowed, name = _KINDS[kind]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
            raise ConfigError(f"'{here}' must be {name}, got {value!r}")
        if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"'{here}' must be a finite number, got {value}")
        low = 0 if key == "seed" else 1
        if kind is int and value < low:
            raise ConfigError(f"'{here}' must be an integer >= {low}, got {value}")
        if key in _POSITIVE and value is not None and not value > 0:
            raise ConfigError(f"'{here}' must be a number > 0, got {value}")


def _merge(config: dict, override: dict) -> None:
    for key, value in override.items():
        if isinstance(value, dict):
            _merge(config[key], value)
        else:
            config[key] = value


def _setting(key: str, value) -> dict:
    """The override {"a": {"b": value}} of the dotted key "a.b"."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def load_config(args) -> dict:
    """DEFAULTS overridden by the config file, then each --set in order, then
    the shorthand flags, whose argparse dests are their dotted keys."""
    overrides = []
    if args.config:
        path = Path(args.config)
        try:
            user = json.loads(path.read_text())
        except OSError as exc:  # missing, a directory or unreadable
            raise ConfigError(f"cannot read config file {path}: "
                              f"{exc.strerror or exc}") from exc
        except ValueError as exc:  # or an integer too long for int()
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config root in {path} must be a JSON object")
        overrides.append(user)
    for assignment in args.set or []:
        if "=" not in assignment:
            raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
        key, raw = assignment.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer too long for int()
            value = raw
        overrides.append(_setting(key, value))
    overrides += [_setting(key, value) for key, value in vars(args).items()
                  if value is not None and key not in ("command", "config", "set")]
    config = copy.deepcopy(DEFAULTS)
    for override in overrides:
        _check(override)
        _merge(config, override)
    return config


def _check_wavelength(key: str, value: float, window_nm) -> None:
    """Raise ConfigError naming key unless the wavelength value [nm] lies in
    the material's window_nm."""
    lo, hi = window_nm
    if not lo <= value <= hi:
        raise ConfigError(f"'{key}' must lie within the material's window_nm "
                          f"[{lo:g}, {hi:g}] nm, got {value:g}")


def build_crystal(config: dict) -> dm.CrystalSpec:
    c = config["crystal"]
    try:
        material = dm.load_material(c["material"])
    except (ValueError, KeyError, OSError) as exc:
        raise ConfigError(f"invalid 'crystal.material' {c['material']!r}: {exc}") from exc
    _check_wavelength("crystal.pump_wavelength_nm", c["pump_wavelength_nm"],
                      material["sellmeier_o"].window_nm)
    try:
        return dm.make_crystal(
            theta_cut=np.deg2rad(c["theta_deg"]),
            length=c["length_mm"] * 1e-3,
            pump_wavelength=c["pump_wavelength_nm"] * 1e-9,
            material=material,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid 'crystal' settings: {exc}") from exc


def build_lambdas(config: dict, section: str, crystal: dm.CrystalSpec,
                  box_pump: pt.PumpSpec | None = None,
                  box_in_window: bool = False) -> np.ndarray:
    """The wavelength grid [nm] of a phasematch or pert_flux section, whose
    ends must be longer than the pump wavelength and lie in the crystal's
    window_nm, and so must the idler 1/(1/lambda_p - 1/lambda) of each end;
    the idler wavelength falls as the signal's rises, so the ends bound the
    grid's.  With box_pump, a quadrature's pump, the low-frequency edge of
    each end's idler box (perturbative.lowest_idler_omega) must lie above
    zero frequency, and with box_in_window too, as the exact quadrature
    needs, in the window."""
    s = config[section]
    lam_p = config["crystal"]["pump_wavelength_nm"]
    lo, hi = window = crystal.sellmeier_o.window_nm
    for end in ("lambda_min_nm", "lambda_max_nm"):
        key, lam = f"{section}.{end}", s[end]
        _check_wavelength(key, lam, window)
        if lam <= lam_p:
            raise ConfigError(f"'{key}' = {lam:g} nm is not longer than the pump "
                              f"wavelength {lam_p:g} nm, so it leaves no idler frequency")
        idler = 1.0 / (1.0 / lam_p - 1.0 / lam)
        if not lo <= idler <= hi:
            raise ConfigError(f"'{key}' = {lam:g} nm pairs with an idler at "
                              f"{idler:.1f} nm, outside the material's window_nm "
                              f"[{lo:g}, {hi:g}] nm")
        if box_pump is None:
            continue
        edge = pt.lowest_idler_omega(dm.TWO_PI * dm.C_LIGHT / (lam * 1e-9), crystal,
                                     box_pump)
        if edge <= 0:
            raise ConfigError(f"'{key}' = {lam:g} nm has an idler box that reaches "
                              f"zero frequency")
        edge_nm = dm.TWO_PI * dm.C_LIGHT / edge * 1e9
        if box_in_window and not lo <= edge_nm <= hi:
            raise ConfigError(f"'{key}' = {lam:g} nm has an idler box edge at "
                              f"{edge_nm:.1f} nm, outside the material's window_nm "
                              f"[{lo:g}, {hi:g}] nm")
    return np.linspace(s["lambda_min_nm"], s["lambda_max_nm"], s["n_points"])


def build_pump(config: dict) -> pt.PumpSpec:
    p = config["pump"]
    try:
        return pt.PumpSpec(tau_p=p["tau_fs"] * 1e-15, w_p=p["w_um"] * 1e-6,
                           l_nl=p["l_nl_mm"] * 1e-3)
    except ValueError as exc:
        raise ConfigError(f"invalid 'pump' settings: {exc}") from exc


def build_grid(config: dict, pump: pt.PumpSpec) -> wg.SimulationGrid:
    from . import wigner as wg
    g = config["grid"]
    try:
        return wg.SimulationGrid(
            n_t=g["n_t"], n_x=g["n_x"], n_y=g["n_y"],
            span_t=g["span_t_factor"] * pump.tau_p,
            span_x=g["span_xy_factor"] * pump.w_p,
            span_y=g["span_xy_factor"] * pump.w_p,
            n_z=g["n_z"],
        )
    except ValueError as exc:
        raise ConfigError(f"invalid 'grid' settings: {exc}") from exc


def build_ensemble(config: dict) -> wg.EnsembleSpec:
    from . import wigner as wg
    e = config["ensemble"]
    return wg.EnsembleSpec(n_realizations=e["realizations"], seed=e["seed"])


# ---------------------------------------------------------------------------
# output helpers


def atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.parent / f".{path.name}.tmp{os.getpid()}"
    tmp.write_bytes(data)
    os.replace(tmp, path)


def csv_text(columns: dict) -> str:
    """CSV of the columns {header: (format spec, values)}, all of one length;
    a NaN value is an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    specs = [spec for spec, _ in columns.values()]
    for row in zip(*(values for _, values in columns.values())):
        writer.writerow("" if v != v else format(v, spec) for spec, v in zip(specs, row))
    return buf.getvalue()


def pgm_bytes(flux: np.ndarray) -> tuple[bytes, float]:
    """8-bit binary heatmap of a (wavelength, angle) map, NaN as 0: wavelength
    on x ascending, angle on y ascending (row 0 = smallest angle).  Returns
    the image and the flux value mapped to level 255."""
    filled = np.nan_to_num(flux, nan=0.0)
    vmax = float(filled.max())
    scale = vmax if vmax > 0 else 1.0
    img = np.clip(np.round(255.0 * filled / scale), 0, 255).astype(np.uint8)
    return "P5\n{} {}\n255\n".format(*img.shape).encode() + img.T.tobytes(), scale


@contextlib.contextmanager
def _writing():
    """Report a failure to create or write the output directory, or a path
    the system refuses (one holding a NUL byte), as a configuration error."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write 'output_dir': {exc}") from exc


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(command: str, config: dict, t0: float,
                   outputs: dict[str, str | bytes], extra: dict | None = None) -> None:
    """Write each named output into config's output_dir, then the manifest;
    the wall time runs from t0 (perf_counter) to the last output, and the
    peak RSS is this process's high-water mark (ru_maxrss, KiB on Linux)."""
    out_dir = Path(config["output_dir"])
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, data in outputs.items():
            atomic_write_bytes(out_dir / name, data if isinstance(data, bytes)
                               else data.encode())
        manifest = {
            "command": command,
            "version": __version__,
            "config": config,
            "config_sha256": config_hash(config),
            "seed": config["ensemble"]["seed"],
            "wall_time_s": round(time.perf_counter() - t0, 3),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "outputs": list(outputs),
        }
        if extra:
            manifest.update(extra)
        atomic_write_bytes(out_dir / "manifest.json",
                           (json.dumps(manifest, indent=2) + "\n").encode())


# ---------------------------------------------------------------------------
# subcommands


def cmd_phasematch(config: dict) -> int:
    t0 = time.perf_counter()
    crystal = build_crystal(config)
    lams = build_lambdas(config, "phasematch", crystal)
    alpha, coeffs = pmm.scan_curve(lams, crystal)
    table = csv_text({
        "lambda_nm": (".6f", lams), "k0_rad_per_m": (".6e", coeffs.k0),
        "alpha_ext_deg": (".6f", np.rad2deg(alpha)),
        "d_beta1_s_per_m": (".6e", coeffs.d_beta1),
        "d_rho_px": (".6e", coeffs.d_rho_px), "d_rho_py": (".6e", coeffs.d_rho_py)})
    write_manifest("phasematch", config, t0, {"phasematch.csv": table})
    return 0


def cmd_pert_flux(config: dict) -> int:
    t0 = time.perf_counter()
    crystal = build_crystal(config)
    pump = build_pump(config)
    s = config["pert_flux"]
    method = s["method"]
    if method not in pt.METHODS:
        raise ConfigError(f"invalid 'pert_flux.method': {method!r}")
    lams = build_lambdas(config, "pert_flux", crystal,
                         None if method == "closed_form" else pump, method == "exact")
    alpha, flux, err = pt.spectrum_along_curve(lams, crystal, pump, method=method,
                                               rel_tol=s["quad_rel_tol"])
    table = csv_text({
        "lambda_nm": (".6f", lams), "alpha_ext_deg": (".6f", np.rad2deg(alpha)),
        "flux": (".8e", flux), "method": ("", [method] * lams.size),
        "quad_error_estimate": (".3e", err)})
    write_manifest("pert-flux", config, t0, {f"pert_flux_{method}.csv": table})
    return 0


def cmd_wigner(config: dict) -> int:
    from . import wigner as wg
    t0 = time.perf_counter()
    crystal = build_crystal(config)
    pump = build_pump(config)
    grid = build_grid(config, pump)
    ensemble = build_ensemble(config)
    s = config["wigner"]
    target = s["target_photons"]
    fmap = wg.run_simulation(
        crystal, pump, grid, ensemble,
        n_lambda=s["lambda_bins"], n_alpha=s["alpha_bins"],
        target_photons=None if target is None else float(target),
        paired_subtraction=s["paired_subtraction"],
    )
    matched = fmap.metadata["matched_alpha_deg"]
    window = fmap.metadata["window_max_alpha_deg"]
    if matched is not None and matched > window:
        print(f"warning: the phase-matched ring lies at {matched:.2f} deg at the grid "
              f"center, outside the grid's angular window (up to {window:.2f} deg); "
              "raise grid.n_x and grid.n_y or lower grid.span_xy_factor",
              file=sys.stderr)
    n_lambda, n_alpha = fmap.flux.shape
    table = csv_text({
        "lambda_nm": (".6f", np.repeat(fmap.lambda_centers_nm, n_alpha)),
        "alpha_deg": (".6f", np.tile(fmap.alpha_centers_deg, n_lambda)),
        "flux": (".8e", fmap.flux.ravel()), "stderr": (".8e", fmap.stderr.ravel()),
        "n_modes": ("d", fmap.n_modes.ravel())})
    pgm, scale = pgm_bytes(fmap.flux)
    write_manifest("wigner", config, t0, {"wigner.csv": table, "wigner.pgm": pgm},
                   extra={"run": fmap.metadata, "pgm_flux_at_255": scale})
    return 0


def cmd_calibrate(config: dict) -> int:
    from . import wigner as wg
    t0 = time.perf_counter()
    crystal = build_crystal(config)
    pump = build_pump(config)
    grid = build_grid(config, pump)
    ensemble = build_ensemble(config)
    target = config["wigner"]["target_photons"]
    if target is None:
        raise ConfigError("'wigner.target_photons' must be set for calibrate")
    cal = wg.calibrate_gain(float(target), crystal, pump, grid, ensemble)
    write_manifest("calibrate", config, t0, {}, extra={"calibration": cal.summary()})
    return 0


def _run_sweep_cell(cell_config: dict) -> tuple[str, int, str, float]:
    t0 = time.perf_counter()
    try:
        code, err = cmd_wigner(cell_config), ""
    except ConfigError as exc:  # the exit codes of main
        code, err = 2, str(exc)
    except ParfluorError as exc:
        code, err = 3, str(exc)
    except Exception as exc:  # cell isolation: never kill the coordinator
        code, err = 3, f"{type(exc).__name__}: {exc}"
    return cell_config["output_dir"], code, err, round(time.perf_counter() - t0, 3)


def cmd_sweep(config: dict) -> int:
    t0 = time.perf_counter()
    cells = config["sweep"]["cells"]
    if not cells:
        raise ConfigError("'sweep.cells' must be a nonempty list of "
                          "[theta_deg, tau_fs, w_um] triples")
    out_root = Path(config["output_dir"])
    cell_configs = []
    for cell in cells:
        # each cell passes the settings check and the builds every command runs
        try:
            if not (isinstance(cell, list) and len(cell) == 3):
                raise ConfigError("a cell is a [theta_deg, tau_fs, w_um] triple")
            theta, tau, w = cell
            override = {"crystal": {"theta_deg": theta}, "pump": {"tau_fs": tau, "w_um": w}}
            _check(override)
            sub = copy.deepcopy(config)
            _merge(sub, override)
            build_crystal(sub)
            build_grid(sub, build_pump(sub))
            sub["output_dir"] = str(out_root / f"theta{theta:g}_tau{tau:g}fs_w{w:g}um")
            if any(c["output_dir"] == sub["output_dir"] for c in cell_configs):
                raise ConfigError(f"an earlier cell writes {sub['output_dir']} too")
        except ConfigError as exc:
            raise ConfigError(f"invalid 'sweep.cells' entry {cell!r}: {exc}") from exc
        cell_configs.append(sub)
    with _writing():
        out_root.mkdir(parents=True, exist_ok=True)  # only once every cell is valid

    # a fork-started pool starts all its workers at once, so none beyond the cells
    jobs = min(config["sweep"]["jobs"], len(cell_configs))
    if jobs == 1:
        results = list(map(_run_sweep_cell, cell_configs))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_sweep_cell, cell_configs))

    index = {
        "command": "sweep",
        "version": __version__,
        "config_sha256": config_hash(config),
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "cells": [
            {"dir": str(Path(name).relative_to(out_root)), "exit_code": code,
             "error": err, "wall_time_s": wall}
            for name, code, err, wall in results
        ],
    }
    with _writing():
        atomic_write_bytes(out_root / "index.json",
                           (json.dumps(index, indent=2) + "\n").encode())
    n_failed = sum(1 for _, code, *_ in results if code != 0)
    if n_failed:
        print(f"sweep: {n_failed} of {len(results)} cells failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="parfluor",
        description="Angular and spectral photon flux of pulse-pumped "
                    "type-I parametric fluorescence",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each shorthand flag's dest is the configuration key it sets
    def common(p, wigner_opts=False):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", dest="output_dir", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration entry (dotted path, "
                            "JSON value); repeatable")
        if wigner_opts:
            p.add_argument("--seed", dest="ensemble.seed", metavar="N", type=int,
                           help="ensemble seed override")
            p.add_argument("--realizations", dest="ensemble.realizations", metavar="N",
                           type=int, help="ensemble size override")
            p.add_argument("--target-photons", dest="wigner.target_photons", metavar="N",
                           type=float,
                           help="calibrate the gain to this total photon number")
        return p

    common(sub.add_parser("phasematch", help="tabulate the matched emission surface"))
    pert = common(sub.add_parser("pert-flux", help="single-pair flux along the surface"))
    pert.add_argument("--method", dest="pert_flux.method", choices=pt.METHODS,
                      help="flux evaluation route")
    common(sub.add_parser("wigner", help="stochastic high-gain simulation"),
           wigner_opts=True)
    common(sub.add_parser("calibrate", help="gain calibration only"),
           wigner_opts=True)
    sweep = common(sub.add_parser("sweep", help="run the crystal-cut x pump matrix"),
                   wigner_opts=True)
    sweep.add_argument("--jobs", dest="sweep.jobs", metavar="N", type=int,
                       help="parallel sweep cells")
    return parser


_COMMANDS = {
    "phasematch": cmd_phasematch,
    "pert-flux": cmd_pert_flux,
    "wigner": cmd_wigner,
    "calibrate": cmd_calibrate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ParfluorError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
