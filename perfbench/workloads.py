"""The three workloads: generated configs, one round of operations, checks.

Every operation is one call of `parfluor.cli.main` with a generated config
file; a round is the same list of operations every time, so `attempted`
and `failed` keep the same ratio however many rounds a run makes.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import resource
import time
import traceback
from pathlib import Path

import numpy as np

import checks

CUTS_DEG = (29.0, 31.3, 35.0, 40.0)


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _digest(paths):
    h = hashlib.sha256()
    for p in map(Path, paths):
        h.update(p.read_bytes() if p.exists() else b"missing")
    return h.hexdigest()


class Workload:
    """Base: writes the material document and config files under `work`."""

    name = ""

    def __init__(self, cli, seed: int, work: Path):
        self.cli = cli
        self.work = work
        self.digests = []
        self.material = work / "bbo-bench.json"
        self.material.write_text(json.dumps(checks.MATERIAL))

    def config(self, **sections):
        cfg = copy.deepcopy(self.cli.DEFAULTS)
        del cfg["output_dir"]
        cfg["crystal"]["material"] = str(self.material)
        for section, values in sections.items():
            cfg[section].update(values)
        return cfg

    def write_config(self, name, cfg):
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1))
        return str(path)

    def succeeds(self, argv):
        """One program call; an exception counts as a failure, with its traceback."""
        try:
            return self.cli.main(argv) == 0
        except Exception:
            traceback.print_exc()
            return False

    def outcomes(self, argv):
        """One flag per operation of a program call, True when it succeeded."""
        return [self.succeeds(argv)]

    def run_round(self):
        """Run the round's program calls; (wall s, cpu s, outcomes) per call."""
        timings = []
        for argv in self.ops:
            c0, t0 = cpu_seconds(), time.perf_counter()
            flags = self.outcomes(argv)
            timings.append((time.perf_counter() - t0, cpu_seconds() - c0, flags))
        return timings

    def after_round(self):
        """Untimed bookkeeping of one round's outputs."""
        self.digests.append(_digest(self.output_files()))

    def check_repeatable(self):
        if len(set(self.digests)) > 1:
            return [f"{self.name}: outputs differ between rounds with identical inputs"]
        return []


class SurfaceScan(Workload):
    """phasematch and pert-flux (three methods) over the four crystal cuts."""

    name = "surface_scan"
    PM_POINTS = 128
    PF_POINTS = 61
    QUAD_TOL = 0.01
    # point 318 of a 1500-point grid over 500-1200 nm: `perfect_curve` scans
    # up to k_max, which rounds past the light cone here and raises
    # EvanescentMode; its call fails in every round and counts as failed
    FAULT_NM = 648.4989993328886

    def __init__(self, cli, seed, work):
        super().__init__(cli, seed, work)
        self.lam_lo, self.lam_hi = 500.0, 1200.0
        self.ops = []
        for theta in CUTS_DEG:
            cfg = self.config(
                crystal={"theta_deg": theta},
                phasematch={"lambda_min_nm": self.lam_lo, "lambda_max_nm": self.lam_hi,
                            "n_points": self.PM_POINTS},
                pert_flux={"lambda_min_nm": self.lam_lo, "lambda_max_nm": self.lam_hi,
                           "n_points": self.PF_POINTS, "quad_rel_tol": self.QUAD_TOL},
            )
            path = self.write_config(f"theta{theta:g}", cfg)
            out = str(work / f"theta{theta:g}")
            self.ops.append(["phasematch", "--config", path, "--out", out])
            for method in ("closed_form", "gaussianized", "exact"):
                self.ops.append(["pert-flux", "--config", path, "--out", out,
                                 "--method", method])
        cfg = self.config(crystal={"theta_deg": 29.0},
                          phasematch={"lambda_min_nm": self.FAULT_NM,
                                      "lambda_max_nm": self.FAULT_NM, "n_points": 1})
        self.ops.append(["phasematch", "--config", self.write_config("fault", cfg),
                         "--out", str(work / "fault")])

    def output_files(self):
        return [self.work / f"theta{t:g}" / f for t in CUTS_DEG
                for f in ("phasematch.csv", "pert_flux_closed_form.csv",
                          "pert_flux_gaussianized.csv", "pert_flux_exact.csv")]

    def check(self):
        errs = self.check_repeatable()
        pm_grid = np.linspace(self.lam_lo, self.lam_hi, self.PM_POINTS)
        pf_grid = np.linspace(self.lam_lo, self.lam_hi, self.PF_POINTS)
        for theta in CUTS_DEG:
            out = self.work / f"theta{theta:g}"
            pm = checks.read_rows(out / "phasematch.csv")
            errs += checks.check_phasematch(pm, theta, pm_grid)
            pf = [checks.read_rows(out / f"pert_flux_{m}.csv")
                  for m in ("closed_form", "gaussianized", "exact")]
            # the flux rows carry the matched angle; check them as roots too
            as_roots = [dict(r, k0_rad_per_m=repr(checks.k0_of_angle(
                             r["lambda_nm"], r["alpha_ext_deg"])) if r["flux"] else "")
                        for r in pf[0]]
            errs += checks.check_phasematch(as_roots, theta, pf_grid)
            errs += checks.check_pert_flux(*pf, [bool(r["flux"]) for r in pf[0]],
                                           theta, self.QUAD_TOL)
        errs += self.check_gvm()
        return errs

    def check_gvm(self):
        """Wide beam at 40 deg: the spectrum peaks at the group-velocity match."""
        theta, lo, hi, n = 40.0, 950.0, 1100.0, 151
        cfg = self.config(
            crystal={"theta_deg": theta}, pump={"w_um": 2000.0},
            phasematch={"lambda_min_nm": lo, "lambda_max_nm": hi, "n_points": n},
            pert_flux={"lambda_min_nm": lo, "lambda_max_nm": hi, "n_points": n},
        )
        path = self.write_config("gvm", cfg)
        out = str(self.work / "gvm")
        if not (self.succeeds(["phasematch", "--config", path, "--out", out])
                and self.succeeds(["pert-flux", "--config", path, "--out", out,
                                   "--method", "closed_form"])):
            return ["gvm: the program failed on the wide-beam check inputs"]
        return checks.check_gvm_peak(
            checks.read_rows(Path(out) / "pert_flux_closed_form.csv"),
            checks.read_rows(Path(out) / "phasematch.csv"),
            theta, expect_nm=1025.0, step_nm=(hi - lo) / (n - 1))


class EnsemblePrecision(Workload):
    """Uncalibrated Wigner ensembles at theta 29 deg, gain 1.5, split into
    fixed-seed sub-ensembles so the batch-means SE is deterministic."""

    name = "ensemble_precision"
    SUB_SEEDS = tuple(range(7001, 7009))
    REALIZATIONS = 4
    GAIN = 1.5
    N_T = 32

    def __init__(self, cli, seed, work):
        super().__init__(cli, seed, work)
        cfg = self.config(
            crystal={"theta_deg": 29.0},
            pump={"tau_fs": 60.0, "w_um": 80.0, "l_nl_mm": 2.0 / self.GAIN},
            grid={"n_t": self.N_T, "n_x": 32, "n_y": 32, "n_z": 100},
            wigner={"lambda_bins": 48, "alpha_bins": 40},
        )
        path = self.write_config("ensemble", cfg)
        self.ops = [["wigner", "--config", path, "--out", str(work / f"sub{s}"),
                     "--seed", str(s), "--realizations", str(self.REALIZATIONS)]
                    for s in self.SUB_SEEDS]

    def output_files(self):
        return [self.work / f"sub{s}" / "wigner.csv" for s in self.SUB_SEEDS]

    def maps(self):
        return [checks.read_rows(p) for p in self.output_files()]

    def precision(self):
        """(grand mean total, its SE, relative SE) by batch means."""
        return checks.batch_means([checks.map_total(m) for m in self.maps()])

    def check(self):
        errs = self.check_repeatable()
        maps = self.maps()
        for s, rows in zip(self.SUB_SEEDS, maps):
            manifest = json.loads((self.work / f"sub{s}" / "manifest.json").read_text())
            reported = manifest["run"]["total_photons"]
            if not math.isclose(checks.map_total(rows), reported, rel_tol=1e-6, abs_tol=1e-6):
                errs.append(f"sub-ensemble {s}: map total {checks.map_total(rows):.6g} "
                            f"!= manifest total {reported:.6g}")
        errs += checks.check_band_balance(maps, self.N_T)
        mean, se, _ = checks.batch_means([checks.map_total(m) for m in maps])
        if mean < 5 * se:
            errs.append(f"total photons {mean:.4g} not resolved above 5 SE ({se:.3g})")
        return errs


class CalibratedSweep(Workload):
    """`sweep --target-photons` over theta 29 deg cells at tau 60 and 120 fs."""

    name = "calibrated_sweep"
    CELLS = [[29.0, 60.0, 80.0], [29.0, 120.0, 80.0]]
    TARGET = 300.0
    CALIB_TOL = 0.2  # calibrate_gain's default rel_tol

    def __init__(self, cli, seed, work):
        super().__init__(cli, seed, work)
        cfg = self.config(
            grid={"n_t": 32, "n_x": 32, "n_y": 32, "n_z": 100},
            ensemble={"realizations": 4},
            sweep={"cells": self.CELLS, "jobs": 1},
        )
        path = self.write_config("sweep", cfg)
        self.out = work / "sweep"
        self.ops = [["sweep", "--config", path, "--out", str(self.out),
                     "--seed", str(seed), "--target-photons", repr(self.TARGET)]]
        self.dirs = [f"theta{t:g}_tau{tau:g}fs_w{w:g}um" for t, tau, w in self.CELLS]

    def outcomes(self, argv):
        """The sweep is one call; each of its cells counts as one operation."""
        index = self.out / "index.json"
        index.unlink(missing_ok=True)
        self.succeeds(argv)
        if not index.exists():
            return [False] * len(self.CELLS)
        codes = {c["dir"]: c["exit_code"] for c in json.loads(index.read_text())["cells"]}
        return [codes.get(d) == 0 for d in self.dirs]

    def output_files(self):
        return [self.out / d / "wigner.csv" for d in self.dirs]

    def check(self):
        errs = self.check_repeatable()
        for d in self.dirs:
            rows = checks.read_rows(self.out / d / "wigner.csv")
            total = checks.map_total(rows)
            # bins treated as independent; sqrt(2) allows for the positive
            # correlation of conjugate signal and idler bins
            se = math.sqrt(2 * sum((int(r["n_modes"]) * float(r["stderr"])) ** 2
                                   for r in rows if r["stderr"]))
            if abs(total - self.TARGET) > self.CALIB_TOL * self.TARGET + 4 * se:
                errs.append(f"{d}: total {total:.5g} misses target {self.TARGET:g} "
                            f"by more than {self.CALIB_TOL:.0%} + 4 SE ({se:.3g})")
        return errs


WORKLOADS = {w.name: w for w in (SurfaceScan, EnsemblePrecision, CalibratedSweep)}
