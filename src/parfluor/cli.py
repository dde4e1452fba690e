"""Command-line front end: JSON configuration, subcommands, file emission.

Interface units: wavelengths nm, durations fs, widths um, angles deg; all
conversions to SI happen at this boundary.  Every output directory receives
a manifest recording the resolved configuration, its hash, the seed, the
package version and wall time, sufficient to reproduce the files exactly.
Output files are written to a temporary name and atomically renamed, so a
failing run never leaves partial files.

Exit codes: 0 success, 1 partial sweep failure, 2 configuration error,
3 computation error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from scipy.constants import c as C_LIGHT

from . import __version__
from . import dispersion as dm
from . import perturbative as pt
from . import phasematch as pmm
from . import wigner as wg
from .errors import ConfigError, ParfluorError

DATA_DIR_ENV = dm.DATA_DIR_ENV  # where crystal.material names are looked up first

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
    "pump": {"tau_fs": 60.0, "w_um": 80.0, "l_nl_mm": 20.0, "a0": 1.0},
    "grid": {
        "n_t": 128, "n_x": 64, "n_y": 64,
        "span_t_factor": 8.0, "span_xy_factor": 8.0,
        "n_z": 200, "dtype": "complex128",
    },
    "ensemble": {"realizations": 10, "seed": 20240101},
    "phasematch": {"lambda_min_nm": 500.0, "lambda_max_nm": 1200.0, "n_points": 256},
    "pert_flux": {
        "lambda_min_nm": 500.0, "lambda_max_nm": 1200.0, "n_points": 121,
        "method": "closed_form", "quad_rel_tol": 0.01,
    },
    "wigner": {
        "target_photons": None, "lambda_bins": 48, "alpha_bins": 40,
        "paired_subtraction": False,
    },
    "sweep": {"cells": DEFAULT_SWEEP_CELLS, "jobs": 1},
}


# ---------------------------------------------------------------------------
# configuration handling


def _merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key '{here}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"'{here}' must be a table of settings")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = value
    return out


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown configuration key '{key}'")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"unknown configuration key '{key}'")
    node[parts[-1]] = value


def load_config(args) -> dict:
    config = copy.deepcopy(DEFAULTS)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            user = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config root in {path} must be a JSON object")
        config = _merge(config, user)
    for assignment in args.set or []:
        _apply_set(config, assignment)
    if args.out:
        config["output_dir"] = args.out
    if args.seed is not None:
        config["ensemble"]["seed"] = args.seed
    if getattr(args, "realizations", None) is not None:
        config["ensemble"]["realizations"] = args.realizations
    if getattr(args, "target_photons", None) is not None:
        config["wigner"]["target_photons"] = args.target_photons
    if getattr(args, "method", None) is not None:
        config["pert_flux"]["method"] = args.method
    if getattr(args, "jobs", None) is not None:
        config["sweep"]["jobs"] = args.jobs
    return config


def build_crystal(config: dict) -> dm.CrystalSpec:
    c = config["crystal"]
    try:
        return dm.make_crystal(
            theta_cut=np.deg2rad(float(c["theta_deg"])),
            length=float(c["length_mm"]) * 1e-3,
            pump_wavelength=float(c["pump_wavelength_nm"]) * 1e-9,
            material=c["material"],
        )
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid 'crystal' settings: {exc}") from exc


def build_pump(config: dict, crystal: dm.CrystalSpec) -> pt.PumpSpec:
    p = config["pump"]
    try:
        return pt.PumpSpec(
            tau_p=float(p["tau_fs"]) * 1e-15,
            w_p=float(p["w_um"]) * 1e-6,
            omega_center=crystal.pump_center_omega,
            l_nl=float(p["l_nl_mm"]) * 1e-3,
            a0=float(p["a0"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid 'pump' settings: {exc}") from exc


def build_grid(config: dict, crystal: dm.CrystalSpec, pump: pt.PumpSpec) -> wg.SimulationGrid:
    g = config["grid"]
    try:
        return wg.SimulationGrid(
            n_t=int(g["n_t"]), n_x=int(g["n_x"]), n_y=int(g["n_y"]),
            span_t=float(g["span_t_factor"]) * pump.tau_p,
            span_x=float(g["span_xy_factor"]) * pump.w_p,
            span_y=float(g["span_xy_factor"]) * pump.w_p,
            n_z=int(g["n_z"]),
            omega_center=crystal.pump_center_omega / 2.0,
            dtype=str(g["dtype"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid 'grid' settings: {exc}") from exc


def build_ensemble(config: dict) -> wg.EnsembleSpec:
    e = config["ensemble"]
    try:
        return wg.EnsembleSpec(n_realizations=int(e["realizations"]),
                               seed=int(e["seed"]))
    except ValueError as exc:
        raise ConfigError(f"invalid 'ensemble' settings: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.parent / f".{path.name}.tmp{os.getpid()}"
    tmp.write_text(text)
    os.replace(tmp, path)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.parent / f".{path.name}.tmp{os.getpid()}"
    tmp.write_bytes(data)
    os.replace(tmp, path)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, wall_time: float,
                   outputs: list[str], extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "config_sha256": config_hash(config),
        "seed": config["ensemble"]["seed"],
        "wall_time_s": round(wall_time, 3),
        "outputs": outputs,
    }
    if extra:
        manifest.update(extra)
    atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_phasematch(config: dict) -> int:
    t0 = time.perf_counter()
    crystal = build_crystal(config)
    s = config["phasematch"]
    scan = pmm.scan_curve(float(s["lambda_min_nm"]), float(s["lambda_max_nm"]),
                          int(s["n_points"]), crystal)
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    pmm.write_scan_csv(*scan, buf)
    atomic_write_text(out_dir / "phasematch.csv", buf.getvalue())
    write_manifest(out_dir, "phasematch", config, time.perf_counter() - t0,
                   ["phasematch.csv"])
    return 0


def cmd_pert_flux(config: dict) -> int:
    t0 = time.perf_counter()
    crystal = build_crystal(config)
    pump = build_pump(config, crystal)
    s = config["pert_flux"]
    method = str(s["method"])
    if method not in pt.METHODS:
        raise ConfigError(f"invalid 'pert_flux.method': {method!r}")
    quad = pt.QuadratureSpec(rel_tol=float(s["quad_rel_tol"]))
    lams = np.linspace(float(s["lambda_min_nm"]), float(s["lambda_max_nm"]),
                       int(s["n_points"]))
    columns = pt.spectrum_along_curve(lams, crystal, pump, method=method, quad=quad)
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    pt.write_spectrum_csv(lams, *columns, method, buf)
    name = f"pert_flux_{method}.csv"
    atomic_write_text(out_dir / name, buf.getvalue())
    write_manifest(out_dir, "pert-flux", config, time.perf_counter() - t0, [name])
    return 0


def cmd_wigner(config: dict) -> int:
    t0 = time.perf_counter()
    crystal = build_crystal(config)
    pump = build_pump(config, crystal)
    grid = build_grid(config, crystal, pump)
    ensemble = build_ensemble(config)
    s = config["wigner"]
    target = s["target_photons"]
    fmap = wg.run_simulation(
        crystal, pump, grid, ensemble,
        n_lambda=int(s["lambda_bins"]), n_alpha=int(s["alpha_bins"]),
        target_photons=None if target is None else float(target),
        paired_subtraction=bool(s["paired_subtraction"]),
    )
    matched = fmap.metadata["matched_alpha_deg"]
    window = fmap.metadata["window_max_alpha_deg"]
    if matched is not None and matched > window:
        print(f"warning: the phase-matched ring lies at {matched:.2f} deg at the grid "
              f"center, outside the grid's angular window (up to {window:.2f} deg); "
              "raise grid.n_x and grid.n_y or lower grid.span_xy_factor",
              file=sys.stderr)
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    fmap.to_csv(buf)
    atomic_write_text(out_dir / "wigner.csv", buf.getvalue())
    pgm = io.BytesIO()
    scale = fmap.to_pgm(pgm)
    atomic_write_bytes(out_dir / "wigner.pgm", pgm.getvalue())
    write_manifest(out_dir, "wigner", config, time.perf_counter() - t0,
                   ["wigner.csv", "wigner.pgm"],
                   extra={"run": fmap.metadata, "pgm_flux_at_255": scale})
    return 0


def cmd_calibrate(config: dict) -> int:
    t0 = time.perf_counter()
    crystal = build_crystal(config)
    pump = build_pump(config, crystal)
    grid = build_grid(config, crystal, pump)
    ensemble = build_ensemble(config)
    target = config["wigner"]["target_photons"]
    if target is None:
        raise ConfigError("'wigner.target_photons' must be set for calibrate")
    cal = wg.calibrate_gain(float(target), crystal, pump, grid, ensemble)
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir, "calibrate", config, time.perf_counter() - t0, [],
                   extra={"calibration": {
                       "l_nl_mm": cal.l_nl * 1e3,
                       "gain": crystal.length / cal.l_nl,
                       "total_photons": cal.total_photons,
                       "n_probes": cal.n_probes,
                       "trace": list(cal.trace),
                   }})
    return 0


def _run_sweep_cell(cell_config: dict) -> tuple[str, int, str, float]:
    t0 = time.perf_counter()
    try:
        code, err = cmd_wigner(cell_config), ""
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
    out_root.mkdir(parents=True, exist_ok=True)
    cell_configs = []
    for cell in cells:
        try:
            theta, tau, w = (float(v) for v in cell)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid sweep cell {cell!r}: {exc}") from exc
        sub = copy.deepcopy(config)
        sub["crystal"]["theta_deg"] = theta
        sub["pump"]["tau_fs"] = tau
        sub["pump"]["w_um"] = w
        name = f"theta{theta:g}_tau{tau:g}fs_w{w:g}um"
        sub["output_dir"] = str(out_root / name)
        cell_configs.append(sub)

    jobs = max(1, int(config["sweep"]["jobs"]))
    results = []
    if jobs == 1:
        for sub in cell_configs:
            results.append(_run_sweep_cell(sub))
    else:
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
    atomic_write_text(out_root / "index.json", json.dumps(index, indent=2) + "\n")
    n_failed = sum(1 for _, code, *_ in results if code != 0)
    if n_failed:
        print(f"sweep: {n_failed} of {len(results)} cells failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parfluor",
        description="Angular and spectral photon flux of pulse-pumped "
                    "type-I parametric fluorescence",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, wigner_opts=False, pert_opts=False):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="ensemble seed override")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration entry (dotted path, "
                            "JSON value); repeatable")
        if wigner_opts:
            p.add_argument("--realizations", type=int,
                           help="ensemble size override")
            p.add_argument("--target-photons", dest="target_photons", type=float,
                           help="calibrate the gain to this total photon number")
            p.add_argument("--jobs", type=int, help="parallel sweep cells")
        if pert_opts:
            p.add_argument("--method",
                           choices=pt.METHODS,
                           help="flux evaluation route")

    common(sub.add_parser("phasematch", help="tabulate the matched emission surface"))
    common(sub.add_parser("pert-flux", help="single-pair flux along the surface"),
           pert_opts=True)
    common(sub.add_parser("wigner", help="stochastic high-gain simulation"),
           wigner_opts=True)
    common(sub.add_parser("calibrate", help="gain calibration only"),
           wigner_opts=True)
    common(sub.add_parser("sweep", help="run the crystal-cut x pump matrix"),
           wigner_opts=True)
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
