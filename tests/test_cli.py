import concurrent.futures
import csv
import importlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from parfluor import cli
from parfluor import dispersion as dm


TINY_GRID = [
    "--set", "grid.n_t=8", "--set", "grid.n_x=8", "--set", "grid.n_y=8",
    "--set", "grid.n_z=8",
]


# the shipped BBO data as a material document
BBO_DOC = {
    "name": "BBO-local",
    "sellmeier_o": {"b0": 2.7405, "b1": 0.0184, "c1": 0.0179, "b2": 0.0155},
    "sellmeier_e": {"b0": 2.3730, "b1": 0.0128, "c1": 0.0156, "b2": 0.0044},
    "window_nm": [180.0, 2600.0],
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigHandling:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["phasematch", "--config", str(bad),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_config_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["phasematch", "--config", str(tmp_path), "--out", str(out)])
        assert code == 2
        assert str(tmp_path) in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_named_in_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"crystal": {"theta_degrees": 31.3}}))
        code = cli.main(["phasematch", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "crystal.theta_degrees" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("phasematch", "crystal", 5),
        ("phasematch", "crystal.material", 5),
        ("phasematch", "phasematch.n_points", "x"),
        ("phasematch", "phasematch.n_points", -3),
        ("phasematch", "phasematch.n_points", 41.0),
        ("pert-flux", "pert_flux.n_points", "x"),
        ("pert-flux", "pert_flux.quad_rel_tol", "x"),
        ("pert-flux", "pert_flux.quad_rel_tol", 0),
        ("pert-flux", "pert_flux.quad_rel_tol", -1),
        ("wigner", "wigner.lambda_bins", "x"),
        ("wigner", "wigner.lambda_bins", 0),
        ("wigner", "wigner.target_photons", "x"),
        ("calibrate", "wigner.target_photons", "x"),
        ("calibrate", "wigner.target_photons", 0),
        ("calibrate", "wigner.target_photons", -5),
        ("wigner", "wigner.target_photons", 0),
        ("wigner", "wigner.target_photons", -5.0),
        ("wigner", "wigner.paired_subtraction", "no"),
        ("sweep", "sweep.jobs", "x"),
        ("wigner", "ensemble.seed", -1),
        ("wigner", "pump.a0", 2.0),
        ("wigner", "grid.dtype", "complex64"),
        ("pert-flux", "pump.l_nl_mm", float("nan")),
        ("pert-flux", "crystal.length_mm", float("inf")),
        ("wigner", "grid.span_t_factor", float("nan")),
        ("sweep", "sweep.cells", [[29.0, float("-inf"), 80.0]]),
        ("phasematch", "crystal.pump_wavelength_nm", 0),
        ("pert-flux", "crystal.pump_wavelength_nm", -400.0),
        ("phasematch", "phasematch.lambda_min_nm", 0),
        ("phasematch", "phasematch.lambda_min_nm", -500),
        ("phasematch", "phasematch.lambda_max_nm", 0.0),
        ("pert-flux", "pert_flux.lambda_min_nm", 0),
        ("pert-flux", "pert_flux.lambda_max_nm", -1200.0),
        # JSON integers have no bound; these lie beyond float range
        pytest.param("pert-flux", "crystal.length_mm", 10**400, id="length_mm-1e400"),
        pytest.param("wigner", "pump.tau_fs", 10**400, id="tau_fs-1e400"),
        pytest.param("phasematch", "phasematch.n_points", 10**400, id="n_points-1e400"),
        pytest.param("phasematch", "phasematch.n_points", -10**400, id="n_points--1e400"),
    ])
    @pytest.mark.parametrize("source", ["set", "file"])
    def test_malformed_setting_exits_2_naming_key(self, tmp_path, capsys, command,
                                                  key, value, source):
        if source == "set":
            given = ["--set", f"{key}={json.dumps(value)}"]
        else:
            override = value
            for part in reversed(key.split(".")):
                override = {part: override}
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(override))
            given = ["--config", str(cfg)]
        code = cli.main([command, *TINY_GRID, *given, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["set", "file"])
    def test_integer_too_long_to_convert_exits_2(self, tmp_path, capsys, source):
        # json refuses to convert an integer this long with a plain ValueError
        digits = "9" * 5000
        if source == "set":
            given = ["--set", f"crystal.length_mm={digits}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"crystal": {"length_mm": %s}}' % digits)
            given = ["--config", str(cfg)]
        code = cli.main(["phasematch", *given, "--out", str(tmp_path / "out")])
        assert code == 2
        assert ("'crystal.length_mm'" if source == "set" else "cfg.json") in \
            capsys.readouterr().err

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        code = cli.main(["wigner", *TINY_GRID, "--seed", "-1",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'ensemble.seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, value", [("wigner", "0"), ("calibrate", "-5")])
    def test_non_positive_target_photons_flag_exits_2(self, tmp_path, capsys, command, value):
        code = cli.main([command, *TINY_GRID, "--target-photons", value,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'wigner.target_photons'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("wigner", "--jobs"), ("calibrate", "--jobs"),
        # the perturbative commands draw no random numbers
        ("phasematch", "--seed"), ("pert-flux", "--seed"),
    ])
    def test_flag_only_on_commands_it_serves(self, tmp_path, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        code = cli.main(["phasematch", "--set", "crystal.theta_deg=120",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "crystal" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("phasematch", "phasematch.lambda_min_nm", 100),
        ("phasematch", "phasematch.lambda_min_nm", 1e-300),
        ("phasematch", "phasematch.lambda_max_nm", 3000),
        ("phasematch", "crystal.pump_wavelength_nm", 1e-300),
        ("pert-flux", "pert_flux.lambda_max_nm", 3000),
        ("pert-flux", "crystal.pump_wavelength_nm", 2601),
        # inside the window, but its idler at 8400 nm is not
        ("phasematch", "phasematch.lambda_min_nm", 420),
        ("pert-flux", "pert_flux.lambda_min_nm", 420),
        ("wigner", "crystal.pump_wavelength_nm", 1e-300),
    ])
    def test_out_of_window_exits_2(self, tmp_path, capsys, command, key, value):
        # refused before any arithmetic: no warning, and no output directory
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, *TINY_GRID, "--set", f"{key}={value!r}",
                             "--out", str(out)])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_idler_outside_window_is_named(self, tmp_path, capsys):
        code = cli.main(["pert-flux", "--set", "pert_flux.lambda_min_nm=420",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "idler at 8400.0 nm" in capsys.readouterr().err

    @pytest.mark.parametrize("method, code", [
        ("exact", 2), ("closed_form", 0), ("gaussianized", 0)])
    def test_exact_idler_box_outside_window_exits_2(self, tmp_path, capsys, method, code):
        # the idler of 476.3 nm lies at 2497 nm, inside the window, but the
        # exact quadrature's box around it reaches past 2600 nm; the other
        # methods evaluate no refractive index across the box
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["pert-flux", "--method", method,
                             "--set", "pert_flux.lambda_min_nm=476.3",
                             "--set", "pert_flux.lambda_max_nm=480",
                             "--set", "pert_flux.n_points=3", "--out", str(out)]) == code
        if code:
            err = capsys.readouterr().err
            assert "'pert_flux.lambda_min_nm'" in err and "box edge at 2708.6 nm" in err
            assert not out.exists()

    @pytest.mark.parametrize("method, code", [
        ("exact", 2), ("gaussianized", 2), ("closed_form", 0)])
    def test_idler_box_at_zero_frequency_exits_2(self, tmp_path, capsys, method, code):
        # a 1 fs pulse widens the idler box of either end past zero
        # frequency: both quadratures refuse it by one rule, while the
        # closed form integrates no box
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["pert-flux", "--method", method, "--set", "pump.tau_fs=1",
                             "--set", "pert_flux.n_points=5", "--out", str(out)]) == code
        if code:
            err = capsys.readouterr().err
            assert "'pert_flux.lambda_min_nm'" in err and "reaches zero frequency" in err
            assert not out.exists()

    def test_parser_is_built_once_and_keeps_no_settings(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["pert-flux", "--method", "gaussianized",
                         "--set", "pert_flux.n_points=3", "--out", str(first)]) == 0
        assert cli.main(["pert-flux", "--out", str(second)]) == 0
        config = json.loads((second / "manifest.json").read_text())["config"]
        assert config["pert_flux"] == cli.DEFAULTS["pert_flux"]
        assert len(read_csv(second / "pert_flux_closed_form.csv")) == 121

    @pytest.mark.parametrize("doc", [
        {**BBO_DOC, "sellmeier_o": {**BBO_DOC["sellmeier_o"], "b3": 0.0}},
        [BBO_DOC],
        {**BBO_DOC, "sellmeier_e": {**BBO_DOC["sellmeier_e"], "b0": "2.3730"}},
        {**BBO_DOC, "window_nm": [180.0]},
    ], ids=["extra-key", "list-root", "string-coefficient", "one-element-window"])
    def test_malformed_material_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "material.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["phasematch", "--set", f"crystal.material={path}",
                         "--set", "phasematch.n_points=5", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'crystal.material'" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", [300.0, 400.0])
    @pytest.mark.parametrize("argv", [
        ["phasematch"],
        ["pert-flux", "--method", "closed_form"],
        ["pert-flux", "--method", "gaussianized"],
        ["pert-flux", "--method", "exact"],
    ], ids=["phasematch", "closed_form", "gaussianized", "exact"])
    def test_signal_not_longer_than_pump_exits_2(self, tmp_path, capsys, argv, lam):
        # refused before any arithmetic on every route: no warning, and no
        # output directory
        key = f"{argv[0].replace('-', '_')}.lambda_min_nm"
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([*argv, "--set", f"{key}={lam}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{key}' = {lam:g} nm is not longer than the pump wavelength 400 nm" in err
        assert "leaves no idler frequency" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["phasematch", "--set", "phasematch.n_points=3"],
        ["pert-flux", "--set", "pert_flux.n_points=3"],
        ["wigner", *TINY_GRID, "--realizations", "1"],
        ["sweep", *TINY_GRID, "--realizations", "1", "--set", "sweep.cells=[[29, 60, 80]]"],
    ], ids=["phasematch", "pert-flux", "wigner", "sweep"])
    @pytest.mark.parametrize("out", ["file/out", "a\0b"], ids=["under-a-file", "nul-byte"])
    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys, argv, out):
        # a regular file as the parent of the output directory, or a name
        # holding a NUL byte, which the JSON string escapes
        (tmp_path / "file").write_text("")
        out = json.dumps(str(tmp_path / out))
        assert cli.main([*argv, "--set", f"output_dir={out}"]) == 2
        assert "'output_dir'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_readme_configuration_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("### Configuration"):]
        start = section.index("```json\n") + len("```json\n")
        block = section[start:section.index("```", start)]
        assert json.loads(block) == cli.DEFAULTS

    def test_readme_library_names_exist(self):
        # every module-qualified name the Library examples use is in the package
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("## Library"):readme.index("## Command line")]
        code = "".join(re.findall(r"```python\n(.*?)```", section, re.S))
        modules = {"dm": "dispersion", "pm": "phasematch", "pt": "perturbative",
                   "wg": "wigner"}
        imports = re.findall(r"(\w+) as (dm|pm|pt|wg)\b", code)
        assert {alias: mod for mod, alias in imports} == modules
        names = sorted(set(re.findall(r"\b(dm|pm|pt|wg)\.(\w+)", code)))
        assert len(names) >= 10
        missing = [f"{alias}.{name}" for alias, name in names if not hasattr(
            importlib.import_module(f"parfluor.{modules[alias]}"), name)]
        assert missing == []

    def test_env_var_data_dir(self, tmp_path, monkeypatch):
        (tmp_path / "mybbo.json").write_text(json.dumps(BBO_DOC))
        monkeypatch.setenv(dm.DATA_DIR_ENV, str(tmp_path))
        out = tmp_path / "out"
        code = cli.main(["phasematch", "--set", "crystal.material=mybbo",
                         "--set", "phasematch.n_points=5", "--out", str(out)])
        assert code == 0


class TestPhasematchCommand:
    def test_default_29deg_curve_touches_axis_near_800(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["phasematch", "--set", "crystal.theta_deg=29.0",
                         "--set", "phasematch.n_points=201", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "phasematch.csv")
        assert len(rows) == 201
        near = [r for r in rows if r["alpha_ext_deg"]
                and abs(float(r["lambda_nm"]) - 800) < 50
                and float(r["alpha_ext_deg"]) < 0.6]
        assert near

    def test_csv_format_with_gap(self, tmp_path):
        # the 29 deg cut has no matched point near 800 nm
        assert cli.main(["phasematch", "--set", "crystal.theta_deg=29.0",
                         "--set", "phasematch.lambda_min_nm=780",
                         "--set", "phasematch.lambda_max_nm=820",
                         "--set", "phasematch.n_points=5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "phasematch.csv").read_text().splitlines()
        assert lines[0].split(",") == ["lambda_nm", "k0_rad_per_m", "alpha_ext_deg",
                                       "d_beta1_s_per_m", "d_rho_px", "d_rho_py"]
        assert len(lines) == 6
        assert any(line.endswith(",,,,") for line in lines[1:])

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["phasematch", "--set", "phasematch.n_points=5",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("command", "version", "config", "config_sha256", "seed",
                    "wall_time_s", "outputs"):
            assert key in manifest
        assert manifest["outputs"] == ["phasematch.csv"]


    @pytest.mark.parametrize("theta", [29.0, 31.3, 35.0, 40.0])
    def test_dense_grid_reaches_light_cone_without_error(self, tmp_path, theta):
        # 648.4989993328886 nm, point 318 of this grid, once put the end of
        # the root scan a rounding error past the idler light cone
        code = cli.main(["phasematch", "--set", f"crystal.theta_deg={theta}",
                         "--set", "phasematch.n_points=1500", "--out", str(tmp_path)])
        assert code == 0

    def test_single_fault_wavelength(self, tmp_path):
        lam = "648.4989993328886"
        code = cli.main(["phasematch", "--set", "crystal.theta_deg=29.0",
                         "--set", f"phasematch.lambda_min_nm={lam}",
                         "--set", f"phasematch.lambda_max_nm={lam}",
                         "--set", "phasematch.n_points=1", "--out", str(tmp_path)])
        assert code == 0
        assert read_csv(tmp_path / "phasematch.csv")[0]["k0_rad_per_m"]

    def test_rows_that_cannot_refract_out_keep_all_but_the_angle(self, tmp_path):
        # at 60 deg the matched ring leaves the vacuum light cone from about
        # 2214 nm on; those rows still carry k0, the coefficients and the flux
        args = ["--set", "crystal.theta_deg=60",
                "--set", "phasematch.lambda_min_nm=1200",
                "--set", "phasematch.lambda_max_nm=2590",
                "--set", "pert_flux.lambda_min_nm=1200",
                "--set", "pert_flux.lambda_max_nm=2590", "--out", str(tmp_path)]
        assert cli.main(["phasematch", *args]) == 0
        assert cli.main(["pert-flux", *args]) == 0
        for name, kept in (("phasematch.csv", ("k0_rad_per_m", "d_beta1_s_per_m")),
                           ("pert_flux_closed_form.csv", ("flux",))):
            rows = read_csv(tmp_path / name)
            assert all(r[key] for r in rows for key in kept)
            inside = [bool(r["alpha_ext_deg"]) for r in rows]
            assert inside == sorted(inside, reverse=True) and 0 < sum(inside) < len(rows)


GOLDEN = Path(__file__).parent / "data"
# phasematch.csv and pert_flux_closed_form.csv were written with
# finite-difference slopes: k0 and the angle do not depend on them, while
# d_beta1, d_rho and the flux carry the finite differences' error, about
# 1e-7 relative; the gaussianized and exact files were written with the
# closed-form slopes and per-row result objects
EXACT_COLUMNS = ("lambda_nm", "k0_rad_per_m", "alpha_ext_deg")


class TestGoldenOutputs:
    @pytest.mark.parametrize("command, name", [
        (["phasematch", "--set", "phasematch.n_points=41"], "phasematch.csv"),
        (["pert-flux", "--method", "closed_form", "--set", "pert_flux.n_points=41"],
         "pert_flux_closed_form.csv"),
        (["pert-flux", "--method", "gaussianized", "--set", "pert_flux.n_points=41"],
         "pert_flux_gaussianized.csv"),
        (["pert-flux", "--method", "exact", "--set", "pert_flux.n_points=41"],
         "pert_flux_exact.csv"),
    ])
    def test_matches_reference_output(self, tmp_path, command, name):
        assert cli.main(command + ["--set", "crystal.theta_deg=31.3",
                                   "--out", str(tmp_path)]) == 0
        new = read_csv(tmp_path / name)
        ref = read_csv(GOLDEN / name)
        assert len(new) == len(ref) == 41
        assert [list(r) for r in new] == [list(r) for r in ref]
        for got, want in zip(new, ref):
            for key, value in want.items():
                if key == "method" or value == "":
                    assert got[key] == value
                    continue
                rtol = 1e-9 if key in EXACT_COLUMNS else 1e-6
                np.testing.assert_allclose(float(got[key]), float(value), rtol=rtol,
                                           atol=0, err_msg=f"{name} {key}")


class TestPertFluxCommand:
    def test_closed_form_and_gaussianized_agree(self, tmp_path):
        args = ["pert-flux", "--set", "pert_flux.lambda_min_nm=650",
                "--set", "pert_flux.lambda_max_nm=950",
                "--set", "pert_flux.n_points=7"]
        out_cf = tmp_path / "cf"
        out_gs = tmp_path / "gs"
        assert cli.main(args + ["--method", "closed_form", "--out", str(out_cf)]) == 0
        assert cli.main(args + ["--method", "gaussianized", "--out", str(out_gs)]) == 0
        rows_cf = read_csv(out_cf / "pert_flux_closed_form.csv")
        rows_gs = read_csv(out_gs / "pert_flux_gaussianized.csv")
        for a, b in zip(rows_cf, rows_gs):
            if a["flux"]:
                assert abs(float(a["flux"]) / float(b["flux"]) - 1) < 0.01

    def test_csv_emission(self, tmp_path):
        assert cli.main(["pert-flux", "--method", "closed_form",
                         "--set", "pert_flux.lambda_min_nm=700",
                         "--set", "pert_flux.lambda_max_nm=900",
                         "--set", "pert_flux.n_points=5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "pert_flux_closed_form.csv").read_text().splitlines()
        assert lines[0] == "lambda_nm,alpha_ext_deg,flux,method,quad_error_estimate"
        assert len(lines) == 6

    def test_csv_gap_and_error_fields(self, tmp_path):
        # the 29 deg cut has no matched point near 800 nm
        assert cli.main(["pert-flux", "--method", "gaussianized",
                         "--set", "crystal.theta_deg=29.0",
                         "--set", "pert_flux.lambda_min_nm=780",
                         "--set", "pert_flux.lambda_max_nm=820",
                         "--set", "pert_flux.n_points=5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "pert_flux_gaussianized.csv").read_text().splitlines()
        fields = [line.split(",") for line in lines[1:]]
        gaps = [f for f in fields if f[1] == ""]
        assert gaps and all(f[2:] == ["", "gaussianized", ""] for f in gaps)
        assert all(f[2] and f[4] for f in fields if f[1])

    def test_exact_tracks_closed_form_at_405_nm(self, tmp_path):
        # both routes centre the pump on the crystal's carrier: over 1.5 to
        # 2.75 pump wavelengths exact/closed_form lies at 0.958-0.966, as at
        # 400 nm, and at 0.017-0.046 against a 400 nm carrier
        args = ["pert-flux", "--set", "crystal.pump_wavelength_nm=405",
                "--set", "pert_flux.lambda_min_nm=607.5",
                "--set", "pert_flux.lambda_max_nm=1113.75",
                "--set", "pert_flux.n_points=11"]
        rows = {}
        for method in ("closed_form", "exact"):
            assert cli.main(args + ["--method", method, "--out", str(tmp_path)]) == 0
            rows[method] = read_csv(tmp_path / f"pert_flux_{method}.csv")
        ratios = [float(e["flux"]) / float(c["flux"])
                  for c, e in zip(rows["closed_form"], rows["exact"]) if c["flux"]]
        assert len(ratios) == 11
        assert all(0.94 <= r <= 0.99 for r in ratios)

    def test_flux_nonnegative(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["pert-flux", "--set", "pert_flux.n_points=15",
                         "--out", str(out)]) == 0
        for row in read_csv(out / "pert_flux_closed_form.csv"):
            if row["flux"]:
                assert float(row["flux"]) >= 0


# runs phasematch and every pert-flux method in one process, then prints the
# exit codes and which scipy or Wigner-engine modules that process loaded
PERTURBATIVE_RUNS = """
import json, sys
from parfluor import cli, perturbative
runs = [["phasematch", "--set", "phasematch.n_points=5"]] + [
    ["pert-flux", "--method", method, "--set", "pert_flux.n_points=5"]
    for method in perturbative.METHODS]
codes = [cli.main([*argv, "--out", sys.argv[1]]) for argv in runs]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy" or m == "parfluor.wigner")]))
"""


def test_perturbative_commands_load_neither_scipy_nor_wigner(tmp_path):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PERTURBATIVE_RUNS, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert set(codes) == {0}
    assert loaded == []


class TestWignerCommand:
    def test_same_seed_byte_identical_csv(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli.main(["wigner", *TINY_GRID, "--realizations", "2",
                             "--seed", "31415",
                             "--set", "wigner.lambda_bins=6",
                             "--set", "wigner.alpha_bins=4",
                             "--out", str(out)])
            assert code == 0
            outs.append((out / "wigner.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_single_realization_marks_stderr_unavailable(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["wigner", *TINY_GRID, "--realizations", "1",
                         "--set", "wigner.lambda_bins=6",
                         "--set", "wigner.alpha_bins=4", "--out", str(out)])
        assert code == 0
        for row in read_csv(out / "wigner.csv"):
            assert row["stderr"] == ""

    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["wigner", *TINY_GRID, "--realizations", "2",
                         "--set", "wigner.lambda_bins=6",
                         "--set", "wigner.alpha_bins=4",
                         "--out", str(out)])
        assert code == 0
        pgm = (out / "wigner.pgm").read_bytes()
        assert pgm.startswith(b"P5\n6 4\n255\n")
        assert len(pgm) == len(b"P5\n6 4\n255\n") + 6 * 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert "total_photons" in manifest["run"]
        assert manifest["pgm_flux_at_255"] > 0

    @pytest.mark.parametrize("realizations", [1, 3])
    def test_empty_bins_are_empty_fields(self, tmp_path, realizations):
        # far more bins than the 8x8x8 grid's modes fill
        out = tmp_path / "out"
        assert cli.main(["wigner", *TINY_GRID, "--realizations", str(realizations),
                         "--set", "wigner.lambda_bins=48",
                         "--set", "wigner.alpha_bins=40", "--out", str(out)]) == 0
        lines = (out / "wigner.csv").read_text().splitlines()
        assert lines[0] == "lambda_nm,alpha_deg,flux,stderr,n_modes"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 48 * 40
        empty = [r for r in rows if r[4] == "0"]
        assert 0 < len(empty) < len(rows)
        assert all(r[0] and r[1] and r[2:4] == ["", ""] for r in empty)
        filled = [r for r in rows if r[4] != "0"]
        assert all(r[2] and bool(r[3]) == (realizations > 1) for r in filled)

    @pytest.mark.parametrize("theta, warns", [(31.3, True), (29.0, False)])
    def test_ring_outside_window_warns(self, tmp_path, capsys, theta, warns):
        out = tmp_path / "out"
        code = cli.main(["wigner", *TINY_GRID, "--realizations", "1",
                         "--set", f"crystal.theta_deg={theta}",
                         "--set", "wigner.lambda_bins=4",
                         "--set", "wigner.alpha_bins=3", "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("warning: the phase-matched ring") == (1 if warns else 0)
        run = json.loads((out / "manifest.json").read_text())["run"]
        assert run["window_max_alpha_deg"] < 1.0
        assert (run["matched_alpha_deg"] is not None) == warns
        assert run["max_step_phase_rad"] > 0


    def test_non_finite_output_exits_3(self, tmp_path, capsys):
        # gain L/l_nl = 800 overflows the amplified field
        out = tmp_path / "out"
        code = cli.main(["wigner", "--set", "crystal.theta_deg=35",
                         "--set", "pump.tau_fs=120", "--set", "pump.l_nl_mm=0.0025",
                         "--set", "grid.n_t=32", "--set", "grid.n_x=16",
                         "--set", "grid.n_y=16", "--set", "grid.n_z=50",
                         "--realizations", "2", "--out", str(out)])
        assert code == 3
        assert "gain L/l_nl = 800" in capsys.readouterr().err
        assert not (out / "wigner.csv").exists()

    def test_calibrated_run_records_reused_realizations(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["wigner", *TINY_GRID, "--realizations", "3",
                         "--target-photons", "500",
                         "--set", "wigner.lambda_bins=4",
                         "--set", "wigner.alpha_bins=3", "--out", str(out)])
        assert code == 0
        cal = json.loads((out / "manifest.json").read_text())["run"]["calibration"]
        assert cal["reused_realizations"] == 2
        assert len(cal["trace"]) == cal["n_probes"]

    def test_run_states_only_what_the_run_computed(self, tmp_path):
        # the manifest's config holds the settings; run and calibration
        # blocks hold results, laid out once for both commands
        manifests = {}
        for command in ("wigner", "calibrate"):
            out = tmp_path / command
            assert cli.main([command, *TINY_GRID, "--realizations", "3",
                             "--target-photons", "500",
                             "--set", "wigner.lambda_bins=4",
                             "--set", "wigner.alpha_bins=3", "--out", str(out)]) == 0
            manifests[command] = json.loads((out / "manifest.json").read_text())
        run = manifests["wigner"]["run"]
        assert not {"crystal", "pump", "grid", "ensemble"} & set(run)
        cal = manifests["calibrate"]["calibration"]
        assert set(run["calibration"]) == set(cal) | {"reused_realizations"}
        assert run["calibration"]["gain"] == run["gain"]

    @pytest.mark.parametrize("command", ["wigner", "calibrate"])
    def test_manifest_records_peak_rss(self, tmp_path, command):
        out = tmp_path / command
        assert cli.main([command, *TINY_GRID, "--realizations", "2",
                         "--target-photons", "500", "--out", str(out)]) == 0
        peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        # this process's high-water mark (KiB on Linux), which never falls
        assert math.isfinite(peak)
        assert 0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class TestCalibrateCommand:
    def test_trace_recorded(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["calibrate", *TINY_GRID, "--realizations", "2",
                         "--target-photons", "500", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cal = manifest["calibration"]
        assert abs(cal["total_photons"] - 500) <= 0.2 * 500
        assert len(cal["trace"]) == cal["n_probes"]

    def test_trace_never_repeats_a_gain(self, tmp_path):
        # the total at gain 1 is negative here (-0.42): the search must step
        # up from gain 1 without probing it again
        out = tmp_path / "out"
        code = cli.main(["calibrate", *TINY_GRID, "--set", "crystal.theta_deg=40",
                         "--seed", "1", "--realizations", "2",
                         "--target-photons", "50", "--out", str(out)])
        assert code == 0
        cal = json.loads((out / "manifest.json").read_text())["calibration"]
        # the ring lies outside this window, so nothing seeds the search
        assert cal["predicted_total_at_gain_1"] == 0.0
        trace = cal["trace"]
        assert trace[0]["gain"] == 1.0 and trace[0]["total"] <= 0
        gains = [probe["gain"] for probe in trace]
        assert len(set(gains)) == len(gains)

    def test_search_starts_at_the_predicted_gain(self, tmp_path):
        # at 29 deg the single-pair prediction of this grid's gain-1 total
        # (about 20 photons) places the first probe within 20% of the target
        out = tmp_path / "out"
        code = cli.main(["calibrate", "--set", "crystal.theta_deg=29",
                         "--set", "grid.n_t=16", "--set", "grid.n_x=16",
                         "--set", "grid.n_y=16", "--set", "grid.n_z=20",
                         "--realizations", "2", "--target-photons", "80",
                         "--out", str(out)])
        assert code == 0
        cal = json.loads((out / "manifest.json").read_text())["calibration"]
        predicted = cal["predicted_total_at_gain_1"]
        assert 0 < predicted < 80
        assert cal["trace"][0]["gain"] == pytest.approx(np.sqrt(80 / predicted), rel=1e-12)
        assert cal["n_probes"] == 1
        assert abs(cal["total_photons"] - 80) <= 0.2 * 80

    def test_requires_target(self, tmp_path):
        assert cli.main(["calibrate", *TINY_GRID,
                         "--out", str(tmp_path / "o")]) == 2


class TestSweepCommand:
    def test_full_matrix_structure(self, tmp_path):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", *TINY_GRID, "--realizations", "1",
                         "--set", "wigner.lambda_bins=4",
                         "--set", "wigner.alpha_bins=3",
                         "--out", str(out)])
        assert code == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index["cells"]) == 12
        subdirs = [d for d in out.iterdir() if d.is_dir()]
        assert len(subdirs) == 12
        for cell in index["cells"]:
            assert cell["exit_code"] == 0
            assert (out / cell["dir"] / "wigner.csv").exists()
            assert cell["wall_time_s"] > 0
        # each time is rounded to 1 ms
        cell_times = sum(c["wall_time_s"] for c in index["cells"])
        assert cell_times <= index["wall_time_s"] + 0.012

    def test_empty_sweep_exits_2(self, tmp_path):
        assert cli.main(["sweep", "--set", "sweep.cells=[]",
                         "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("cell", [
        "[29.0, -Infinity, 80.0]", '[29.0, "x", 80.0]',
        # an out-of-range value is refused as on any other command, before
        # any cell runs, wherever the cell stands in the list
        "[29, 60, -80], [120, 60, 80], [29, 60, 80]", "[29, 60, 80], [120, 60, 80]",
        "[29, 60]", '["29", 60, 80]',
        # integers beyond float range, in the first cell or the last
        pytest.param(f"[{10**400}, 60, 80]", id="theta-1e400"),
        pytest.param(f"[29, 60, 80], [29, 60, {10**400}]", id="w-1e400"),
        # two cells whose directory names agree: the second would overwrite
        # the first (and, under --jobs, write beside it at once)
        "[29, 60, 80], [29.0000001, 60, 80]", "[35, 60, 80], [35.0, 60, 80]",
    ])
    def test_refused_sweep_creates_no_directory(self, tmp_path, capsys, cell):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--set", f"sweep.cells=[{cell}]", "--out", str(out)]) == 2
        assert "'sweep.cells'" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_cell_isolated(self, tmp_path):
        # a 0.1 um beam passes the settings check, but its transverse window
        # holds evanescent modes, so that cell fails as it runs
        out = tmp_path / "sweep"
        cells = "[[29.0,60.0,80.0],[29.0,60.0,0.1],[35.0,60.0,80.0]]"
        code = cli.main(["sweep", *TINY_GRID, "--realizations", "1",
                         "--set", f"sweep.cells={cells}",
                         "--set", "wigner.lambda_bins=4",
                         "--set", "wigner.alpha_bins=3",
                         "--out", str(out)])
        assert code == 1
        index = json.loads((out / "index.json").read_text())
        codes = {c["dir"]: c["exit_code"] for c in index["cells"]}
        assert sum(1 for v in codes.values() if v == 0) == 2
        assert sum(1 for v in codes.values() if v != 0) == 1

    def test_blocked_cell_directory_is_a_configuration_error(self, tmp_path):
        # a regular file where the first cell's directory would go
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "theta29_tau60fs_w80um").write_text("")
        code = cli.main(["sweep", *TINY_GRID, "--realizations", "1",
                         "--set", "sweep.cells=[[29.0,60.0,80.0],[35.0,60.0,80.0]]",
                         "--set", "wigner.lambda_bins=4",
                         "--set", "wigner.alpha_bins=3",
                         "--out", str(out)])
        assert code == 1
        cells = json.loads((out / "index.json").read_text())["cells"]
        assert [c["exit_code"] for c in cells] == [2, 0]
        assert "output_dir" in cells[0]["error"]

    @pytest.mark.parametrize("jobs, n_cells, workers", [(64, 2, [2]), (8, 1, [])])
    def test_pool_never_larger_than_the_cells(self, tmp_path, monkeypatch, jobs, n_cells,
                                              workers):
        # a recording stand-in for the pool, which starts no process
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        cells = json.dumps([[29.0, 60.0, 80.0], [31.3, 60.0, 80.0]][:n_cells])
        out = tmp_path / "sweep"
        assert cli.main(["sweep", *TINY_GRID, "--realizations", "1", "--jobs", str(jobs),
                         "--set", f"sweep.cells={cells}", "--set", "wigner.lambda_bins=4",
                         "--set", "wigner.alpha_bins=3", "--out", str(out)]) == 0
        assert started == workers
        assert len(json.loads((out / "index.json").read_text())["cells"]) == n_cells

    def test_parallel_jobs(self, tmp_path):
        out = tmp_path / "sweep"
        cells = "[[29.0,60.0,80.0],[31.3,60.0,80.0]]"
        code = cli.main(["sweep", *TINY_GRID, "--realizations", "1", "--jobs", "2",
                         "--set", f"sweep.cells={cells}",
                         "--set", "wigner.lambda_bins=4",
                         "--set", "wigner.alpha_bins=3",
                         "--out", str(out)])
        assert code == 0
        assert len(json.loads((out / "index.json").read_text())["cells"]) == 2


class TestCsvText:
    def test_formats_per_column_and_nan_as_empty_field(self):
        text = cli.csv_text({
            "x": (".2f", np.array([1.0, np.nan, 3.14159])),
            "y": (".3e", [np.nan, 2.5e-7, float("nan")]),
            "n": ("d", np.array([0, 7, 12])),
            "tag": ("", ["a", "a", "a"]),
        })
        assert text == "x,y,n,tag\n1.00,,0,a\n,2.500e-07,7,a\n3.14,,12,a\n"
