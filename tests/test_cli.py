"""CLI surface: commands, exit codes, output files, determinism."""

import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tegsolve import cli, io, loadmode

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "material_file": str(CONFIG_DIR / "materials" / "unit_constant.json"),
        "T_h": 2.0, "T_c": 1.0, "L": 1.0, "A_c": 1.0,
        "mode": {"type": "ratio", "gamma": 1.0},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_solve_ratio_writes_solution(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    csv = (out / "solution.csv").read_text().splitlines()
    assert csv[0] == "x,T,q"
    assert len(csv) == 258  # header + 257 grid rows
    meta = json.loads((out / "solution.meta.json").read_text())
    assert meta["eta"] == pytest.approx(2.0 / 15.0, abs=1e-8)
    assert meta["gamma"] == 1.0


def test_outputs_byte_identical_across_runs(tmp_path):
    cfg = _write_config(tmp_path)
    cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")])
    for name in ("solution.csv", "solution.meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_report_unit_constant(tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["report", "--config", str(cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["z"] == pytest.approx(1.0, abs=1e-13)
    assert rep["gamma_opt"] == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert rep["eta_max"] == pytest.approx(0.1396203899719368, rel=1e-10)
    sweep = (tmp_path / "out" / "eta_sweep.csv").read_text().splitlines()
    assert sweep[0] == "gamma,eta"
    assert len(sweep) == 258


def test_report_reciprocal_kappa_z_formula(tmp_path):
    cfg = _write_config(
        tmp_path,
        material_file=str(CONFIG_DIR / "materials" / "reciprocal_conductivity.json"),
    )
    assert cli.main(["report", "--config", str(cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    expect = 0.9 ** 2 * 1.0 / (0.5 * 2.0 * math.log(2.0))
    assert rep["z"] == pytest.approx(expect, rel=1e-12)


def test_multiplicity_three_solutions(tmp_path):
    cfg = _write_config(
        tmp_path,
        material_file=str(CONFIG_DIR / "materials" / "clamped_three_solutions.json"),
        mode={"type": "multiplicity", "R_load": 8.0},
    )
    assert cli.main(["multiplicity", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    rows = (out / "multiplicity.csv").read_text().splitlines()
    assert rows[0] == "theta,y_c,R_total,gamma_equiv,eta,tangency"
    assert len(rows) == 4
    for i in range(3):
        assert (out / f"solution_{i:03d}.csv").exists()
        assert (out / f"solution_{i:03d}.meta.json").exists()
    curve = (out / "h_curve.csv").read_text().splitlines()
    assert curve[0] == "theta,H"
    assert len(curve) == 2049


def test_solve_resistance_mode_writes_all_roots(tmp_path):
    cfg = _write_config(
        tmp_path,
        material_file=str(CONFIG_DIR / "materials" / "clamped_three_solutions.json"),
        mode={"type": "resistance", "R_load": 8.0},
    )
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert len((out / "multiplicity.csv").read_text().splitlines()) == 4
    assert (out / "solution_002.meta.json").exists()
    assert not (out / "h_curve.csv").exists()  # curve only for `multiplicity`


def test_sweep_command(tmp_path):
    cfg = _write_config(
        tmp_path, mode={"type": "sweep", "gamma_min": 0.0, "gamma_max": 2.0,
                        "n": 5})
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 6
    header = rows[0].split(",")
    eta_cf = float(rows[3].split(",")[header.index("eta_closed_form")])
    eta_num = float(rows[3].split(",")[header.index("eta_numeric")])
    assert eta_num == pytest.approx(eta_cf, abs=1e-6)


def test_sweep_on_a_zero_voltage_leg(tmp_path, monkeypatch):
    # alpha0 = 0: V = 0, so every gamma takes the profile affine in K
    material = tmp_path / "mat.json"
    material.write_text(json.dumps({"kappa": {"family": "linear", "a": 0.5, "b": 1.0},
                                    "rho": {"family": "constant", "c": 1.0},
                                    "alpha0": 0.0}))
    solve, solved = cli.ivp.solve_ratio_mode, []
    monkeypatch.setattr(cli.ivp, "solve_ratio_mode",
                        lambda *a, **kw: solved.append(solve(*a, **kw)) or solved[-1])
    cfg = _write_config(tmp_path, material_file=str(material),
                        mode={"type": "sweep", "gamma_min": 0.0, "gamma_max": 2.0,
                              "n": 5})
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    header, *rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 5
    for row in rows:
        value = dict(zip(header.split(","), map(float, row.split(","))))
        assert value["eta_closed_form"] == value["eta_numeric"] == value["J"] == 0.0
    assert len(solved) == 5
    for sol in solved:
        assert sol.J == 0.0 and abs(sol.T[-1] - 1.0) <= 1e-14


_MODE_OF_TYPE = {
    "ratio": {"type": "ratio", "gamma": 1.0},
    "resistance": {"type": "resistance", "R_load": 8.0},
    "sweep": {"type": "sweep", "gamma_min": 0.0, "gamma_max": 2.0, "n": 5},
    "multiplicity": {"type": "multiplicity", "R_load": 8.0},
}


@pytest.mark.parametrize("command, mtype", [
    ("solve", "sweep"), ("solve", "multiplicity"),
    ("sweep", "ratio"), ("sweep", "resistance"), ("sweep", "multiplicity"),
    ("multiplicity", "ratio"), ("multiplicity", "resistance"),
    ("multiplicity", "sweep"),
])
def test_mode_the_command_does_not_serve_exit_code_and_record(
        tmp_path, capsys, command, mtype):
    cfg = _write_config(tmp_path, mode=_MODE_OF_TYPE[mtype])
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == cli.EXIT_CONFIG
    assert command in record["message"] and repr(mtype) in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, key", [
    ({"output_dir": 5}, "'output_dir'"),
    ({"output_dir": True}, "'output_dir'"),
    ({"material_file": 7}, "'material_file'"),
], ids=["output_dir_number", "output_dir_bool", "material_file_number"])
def test_path_that_is_not_a_string_exit_code_and_record(
        tmp_path, capsys, monkeypatch, overrides, key):
    # str() would take 5 as the directory "5" and True as "True"
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert key in record["message"] and "string" in record["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_output_dir_below_a_regular_file_exit_code_and_record(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = _write_config(tmp_path, output_dir=str(blocker / "out"))
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_IO
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NotADirectoryError"
    assert record["exit_code"] == cli.EXIT_IO
    assert blocker.read_text() == ""


def test_missing_material_file_exit_code_and_record(tmp_path, capsys):
    cfg = _write_config(tmp_path, material_file=str(tmp_path / "nowhere.json"))
    code = cli.main(["solve", "--config", str(cfg)])
    assert code == cli.EXIT_MATERIAL
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidMaterial"
    assert "nowhere.json" in record["message"]
    assert record["exit_code"] == cli.EXIT_MATERIAL


def test_unreadable_material_file_exit_code_and_record(tmp_path, capsys):
    cfg = _write_config(tmp_path, material_file=str(tmp_path))  # a directory
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_MATERIAL
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidMaterial"
    assert record["exit_code"] == cli.EXIT_MATERIAL


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"material_file": "m.json", "T_h": 2.0,
                                 "T_c": 1.0, "mode": {"type": "warp"}}))
    assert cli.main(["solve", "--config", str(path2)]) == cli.EXIT_CONFIG
    capsys.readouterr()



@pytest.mark.parametrize("mode", [
    {"type": "ratio", "gamma": "abc"},
    {"type": "multiplicity", "R_load": None},
    {"type": "sweep", "gamma_min": 0.0, "gamma_max": "x", "n": 5},
    {"type": "sweep", "gamma_min": 0.0, "gamma_max": 2.0, "n": math.inf},
], ids=["gamma_text", "R_load_null", "gamma_max_text", "n_infinite"])
def test_non_numeric_mode_field_exit_code_and_record(tmp_path, capsys, mode):
    cfg = _write_config(tmp_path, mode=mode)
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == cli.EXIT_CONFIG


@pytest.mark.parametrize("overrides, key", [
    ({"T_h": "2"}, "'T_h'"),
    ({"T_h": True}, "'T_h'"),
    ({"mode": {"type": "ratio", "gamma": "1.5"}}, "'gamma'"),
    ({"mode": {"type": "ratio", "gamma": True}}, "'gamma'"),
    ({"tolerances": {"sweep_gamma_max": "1e-9"}}, "'tolerances.sweep_gamma_max'"),
    ({"tolerances": {"n_out": "4"}}, "'tolerances.n_out'"),
], ids=["T_h_text", "T_h_bool", "gamma_text", "gamma_bool", "sweep_gamma_max_text",
        "n_out_text"])
def test_config_number_given_as_text_or_bool_exit_code_and_record(
        tmp_path, capsys, overrides, key):
    # float() would read "2" as 2.0 and True as 1.0
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert key in record["message"] and "number" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kappa, alpha0, key", [
    ({"family": "constant", "c": 1.0}, "2", "'alpha0'"),
    ({"family": "constant", "c": 1.0}, True, "'alpha0'"),
    ({"family": "log_affine", "c0": 1.0, "c1": 0.5, "T_ref": "0.8"}, 1.0, "'T_ref'"),
    ({"family": "constant", "c": True}, 1.0, "'c'"),
    ({"family": "table", "knots": [[1.0, 1.0], [2.0, True]]}, 1.0, "'knots'"),
], ids=["alpha0_text", "alpha0_bool", "T_ref_text", "c_bool", "knot_bool"])
def test_material_number_given_as_text_or_bool_exit_code_and_record(
        tmp_path, capsys, kappa, alpha0, key):
    mat = tmp_path / "material.json"
    mat.write_text(json.dumps({"kappa": kappa, "rho": {"family": "constant", "c": 1.0},
                               "alpha0": alpha0}))
    cfg = _write_config(tmp_path, material_file=str(mat))
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_MATERIAL
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidMaterial"
    assert key in record["message"] and "number" in record["message"]
    assert not (tmp_path / "out").exists()


def test_degenerate_report_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, T_h=1.0, T_c=1.0)
    code = cli.main(["report", "--config", str(cfg)])
    assert code == cli.EXIT_SOLVER
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "DegenerateError"


def test_multiplicity_outputs_byte_identical(tmp_path):
    cfg = _write_config(
        tmp_path,
        material_file=str(CONFIG_DIR / "materials" / "clamped_three_solutions.json"),
        mode={"type": "multiplicity", "R_load": 8.0},
    )
    cli.main(["multiplicity", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["multiplicity", "--config", str(cfg), "--out", str(tmp_path / "b")])
    for name in ("multiplicity.csv", "h_curve.csv", "solution_001.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_cli_overrides_reach_config(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["output_dir"] == str(tmp_path / "o")


def test_tol_ode_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, tolerances={"tol_ode": 1e-10})
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("unknown key(s) 'tol_ode' in 'tolerances'")
    with pytest.raises(SystemExit):
        cli.main(["solve", "--config", str(cfg), "--tol-ode", "1e-9"])


@pytest.mark.parametrize("overrides,key", [
    ({"bogus": 1}, "bogus"),
    ({"mode": {"type": "ratio", "gama": 1.0}}, "gama"),
    ({"mode": {"type": "sweep", "gamma_min": 0.0, "gamma_max": 2.0, "n": 5,
               "gamma": 1.0}}, "gamma"),
    ({"tolerances": {"n_outt": 0}}, "n_outt"),
    ({"tolerances": {"tol_od": 1e-3}}, "tol_od"),
    ({"tolerances": {"tol_root": 1e-9}}, "tol_root"),
], ids=["top_level", "mode_typo", "other_mode_field", "tolerance_typo",
        "tol_od", "tol_root"])
def test_unknown_config_key_exit_code_and_record(tmp_path, capsys, overrides, key):
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert repr(key) in record["message"]
    assert not (tmp_path / "out").exists()


def test_report_where_kappa_turns_negative_above_T_h(tmp_path):
    # kappa = 3 - T is positive on [1, 2.5] and negative above 3 K: the report
    # integrates r over [T_c, T_h] only; r = 1.875, so alpha0 = 0.5 gives z = 0.2
    material = tmp_path / "mat.json"
    material.write_text(json.dumps({"kappa": {"family": "linear", "a": -1.0, "b": 3.0},
                                    "rho": {"family": "constant", "c": 1.0},
                                    "alpha0": 0.5}))
    cfg = _write_config(tmp_path, material_file=str(material), T_h=2.5)
    assert cli.main(["report", "--config", str(cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["z"] == pytest.approx(0.2, rel=1e-14)


@pytest.mark.parametrize("rho", [{"family": "wiedemann_franz", "Lo": 1.0},
                                 {"family": "linear", "a": -1.0, "b": 3.0}],
                         ids=["wiedemann_franz", "same_sign_change"])
@pytest.mark.parametrize("alpha0", [6.0, 10.0])
@pytest.mark.parametrize("command, mode", [
    ("solve", {"type": "ratio", "gamma": 0.0}),
    ("multiplicity", {"type": "multiplicity", "R_load": 1.0}),
], ids=["solve", "multiplicity"])
def test_trajectory_past_where_kappa_and_rho_turn_invalid_exit_code_and_record(
        tmp_path, capsys, rho, alpha0, command, mode):
    # kappa = 3 - T and rho change sign together at 3 K, above T_h = 2, and
    # these theta need W beyond it: a solver error, not a scan through 3 K
    material = tmp_path / "mat.json"
    material.write_text(json.dumps({"kappa": {"family": "linear", "a": -1.0, "b": 3.0},
                                    "rho": rho, "alpha0": alpha0}))
    cfg = _write_config(tmp_path, material_file=str(material), mode=mode)
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_SOLVER
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NumericalBlowup"
    assert record["message"].startswith("no valid kappa and rho at T=3.000")


@pytest.mark.parametrize("tolerances", [
    {"n_out": 0}, {"n_out": -4}, {"scan_samples": 1}, {"sweep_gamma_max": -2.0 ** -8},
    {"sweep_gamma_max": math.inf}, {"sweep_gamma_max": math.nan},
], ids=["n_out_zero", "n_out_negative", "scan_samples_one", "sweep_gamma_max_negative",
        "sweep_gamma_max_infinite", "sweep_gamma_max_nan"])
def test_tolerance_range_exit_code_and_record(tmp_path, capsys, tolerances):
    cfg = _write_config(tmp_path, tolerances=tolerances)
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert next(iter(tolerances)) in record["message"]
    assert not (tmp_path / "out").exists()


# each mode with the command that serves it, and a valid mode dict
_MODE_RUNS = {"ratio": ("solve", {"gamma": 1.0}),
              "resistance": ("solve", {"R_load": 1.0}),
              "sweep": ("sweep", {"gamma_min": 0.0, "gamma_max": 2.0, "n": 3}),
              "multiplicity": ("multiplicity", {"R_load": 1.0})}
_NON_FINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan,
               "int_1e400": 10 ** 400}


def _non_finite_cases():
    for mtype, (command, fields_) in _MODE_RUNS.items():
        for where, keys in (("config", ("T_h", "T_c", "L", "A_c")),
                            ("mode", fields_), ("tolerances", io.TOLERANCES)):
            for key in keys:
                for name, value in _NON_FINITE.items():
                    yield pytest.param(command, mtype, where, key, value,
                                       id=f"{mtype}-{key}-{name}")


@pytest.mark.parametrize("command, mtype, where, key, value", list(_non_finite_cases()))
def test_non_finite_config_number_exit_code_and_record(
        tmp_path, capsys, command, mtype, where, key, value):
    # JSON's Infinity, -Infinity and NaN are no number of the schema, wherever
    # they stand, nor is an integer beyond the float range: a config error
    # before any material is read or solver runs
    mode = {"type": mtype, **_MODE_RUNS[mtype][1]}
    overrides = {"mode": mode, "tolerances": {}}
    target = {"config": overrides, "mode": mode, "tolerances": overrides["tolerances"]}
    target[where][key] = value
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert key in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep_n", [-1, 0, 1])
def test_report_sweep_n_below_two_exit_code_and_record(tmp_path, capsys, sweep_n):
    cfg = _write_config(tmp_path, tolerances={"sweep_n": sweep_n})
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert "sweep_n" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha0, gamma, tolerances, error", [
    (1.0, 1e160, {}, None),
    (1.0, 1.0, {"sweep_gamma_max": 1e200}, None),
    (1e160, 1.0, {}, "NumericalBlowup"),
    (1e-170, 1e200, {}, "DegenerateError"),
], ids=["gamma_1e160", "sweep_gamma_max_1e200", "alpha0_1e160", "alpha0_1e-170"])
def test_report_at_extreme_magnitudes(tmp_path, capsys, alpha0, gamma, tolerances, error):
    # a closed form that overflows ends in its limit or a typed error, and
    # (under pytest's error::RuntimeWarning) warns nothing; unit leg: eta(1) = 2/15
    material = tmp_path / "mat.json"
    material.write_text(json.dumps({"kappa": {"family": "constant", "c": 1.0},
                                    "rho": {"family": "constant", "c": 1.0},
                                    "alpha0": alpha0}))
    cfg = _write_config(tmp_path, material_file=str(material), tolerances=tolerances,
                        mode={"type": "ratio", "gamma": gamma})
    code = cli.main(["report", "--config", str(cfg)])
    if error is not None:
        assert code == cli.EXIT_SOLVER
        assert json.loads(capsys.readouterr().err.strip())["error"] == error
        return
    assert code == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["eta_of_gamma"] == (0.0 if gamma > 1.0 else pytest.approx(2.0 / 15.0))
    assert rep["decreasing"] is True
    eta = np.loadtxt(tmp_path / "out" / "eta_sweep.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.isfinite(eta)) and np.all(eta >= 0.0)


def test_report_at_tiny_seebeck_coefficient(tmp_path):
    material = tmp_path / "mat.json"
    material.write_text(json.dumps({"kappa": {"family": "constant", "c": 1.0},
                                    "rho": {"family": "constant", "c": 1.0},
                                    "alpha0": 1e-9}))
    cfg = _write_config(tmp_path, material_file=str(material))
    assert cli.main(["report", "--config", str(cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["sherman_lhs"] == pytest.approx(rep["sherman_rhs"], rel=1e-10)


@pytest.mark.parametrize("alpha0", [1e-7, 1e-8])
def test_solve_at_tiny_seebeck_coefficient_reaches_T_c(tmp_path, alpha0):
    # theta* ~ -4 / alpha0: the profile must still end on T_c, not 1.03 T_c
    # (1e-7) or in a spline error (1e-8)
    material = tmp_path / "mat.json"
    material.write_text(json.dumps({"kappa": {"family": "constant", "c": 1.0},
                                    "rho": {"family": "constant", "c": 1.0},
                                    "alpha0": alpha0}))
    cfg = _write_config(tmp_path, material_file=str(material))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    rows = np.loadtxt(tmp_path / "out" / "solution.csv", delimiter=",", skiprows=1)
    assert rows[0, 1] == 2.0
    assert abs(rows[-1, 1] - 1.0) <= 1e-12


def _format_17g(v):
    """The per-value CSV rule: bools as 1/0, any other value as
    format(float(v), ".17g")."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    return format(float(v), ".17g")


@pytest.mark.parametrize("rows", [
    [(-0.0, math.inf, -math.inf), (math.nan, 5e-324, 1.7976931348623157e308),
     (np.float64(-0.0), np.float64(5e-324), np.float64(math.nan)),
     (0.1, np.float64(0.1), 1 / 3), (np.float64(-1e-300), 2.5, np.float64(1e22))],
    [(0.1, np.float64(2.5), True), (np.float64(-0.0), math.inf, False),
     (1 / 3, 5e-324, np.True_), (np.float64(1e22), -1e-300, np.False_)],
    [],
], ids=["floats", "floats_and_bools", "empty"])
def test_write_csv_bytes_match_per_value_format(tmp_path, rows):
    io.write_csv(tmp_path / "t.csv", ["a", "b", "c"], iter(rows))
    want = "a,b,c\n" + "".join(",".join(map(_format_17g, r)) + "\n" for r in rows)
    assert (tmp_path / "t.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("material", [
    {"kappa": {"family": "constant", "c": 1.0},
     "rho": {"family": "constant", "c": 1.0}, "alpha0": "abc"},
    {"kappa": {"family": "table", "knots": [[1.0, 1.0], [2, "x"]]},
     "rho": {"family": "constant", "c": 1.0}, "alpha0": 1.0},
    {"kappa": {"family": "constant", "c": 1.0},
     "rho": {"family": "constant", "c": 1.0}, "alpha0": math.inf},
    {"kappa": {"family": "constant", "c": -math.inf},
     "rho": {"family": "constant", "c": 1.0}, "alpha0": 1.0},
    {"kappa": {"family": "table", "knots": [[1.0, 1.0], [2.0, math.nan]]},
     "rho": {"family": "constant", "c": 1.0}, "alpha0": 1.0},
], ids=["alpha0_text", "table_knot_text", "alpha0_infinite", "c_negative_infinite",
        "table_knot_nan"])
def test_non_numeric_material_field_exit_code_and_record(tmp_path, capsys, material):
    mat = tmp_path / "material.json"
    mat.write_text(json.dumps(material))
    cfg = _write_config(tmp_path, material_file=str(mat))
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_MATERIAL
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidMaterial"
    assert "must be a finite number" in record["message"]
    assert record["exit_code"] == cli.EXIT_MATERIAL


@pytest.mark.parametrize("material,key", [
    ({"kappa": {"family": "constant", "c": 1.0},
      "rho": {"family": "constant", "c": 1.0}, "alpha_0": 1.0}, "alpha_0"),
    ({"kappa": {"family": "constant", "c": 1.0, "bogus": 1.0},
      "rho": {"family": "constant", "c": 1.0}, "alpha0": 1.0}, "bogus"),
    ({"kappa": {"family": "constant", "c": 1.0},
      "rho": {"family": "linear", "a": 1.0, "b": 1.0, "domain_lo": 0.5},
      "alpha0": 1.0}, "domain_lo"),
    ({"kappa": {"family": "constant", "c": 1.0, "domain_low": 0.5},
      "rho": {"family": "constant", "c": 1.0}, "alpha0": 1.0}, "domain_low"),
], ids=["pair_level", "model_level", "domain_low_typo", "domain_low_removed"])
def test_unknown_material_key_exit_code_and_record(tmp_path, capsys, material, key):
    mat = tmp_path / "material.json"
    mat.write_text(json.dumps(material))
    cfg = _write_config(tmp_path, material_file=str(mat))
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_MATERIAL
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidMaterial"
    assert repr(key) in record["message"]
    assert record["exit_code"] == cli.EXIT_MATERIAL


@pytest.mark.parametrize("where, code, error", [
    ("config", cli.EXIT_CONFIG, "ConfigError"),
    ("material", cli.EXIT_MATERIAL, "InvalidMaterial"),
])
@pytest.mark.parametrize("top", ["[]", "[1, 2]", "2.0", '"text"', "null"])
def test_top_level_that_is_no_object_exit_code_and_record(
        tmp_path, capsys, where, code, error, top):
    mat = tmp_path / "material.json"
    mat.write_text(top if where == "material" else
                   (CONFIG_DIR / "materials" / "unit_constant.json").read_text())
    cfg = _write_config(tmp_path, material_file=str(mat))
    if where == "config":
        cfg.write_text(top)
    assert cli.main(["solve", "--config", str(cfg)]) == code
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == error
    assert "must be a JSON object" in record["message"]
    assert record["exit_code"] == code


def test_unexpected_exception_exit_code_and_record(tmp_path, capsys, monkeypatch):
    def broken(cfg, spec):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(cli._COMMANDS, "solve", (broken, *cli._COMMANDS["solve"][1:]))
    cfg = _write_config(tmp_path)
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip()) == {"error": "ZeroDivisionError",
                                       "message": "float division by zero",
                                       "exit_code": cli.EXIT_SOLVER}


def test_dump_config_round_trip(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli.main(["solve", "--config", str(cfg), "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    path2 = tmp_path / "cfg2.json"
    path2.write_text(dumped)
    assert cli.main(["solve", "--config", str(path2), "--dump-config"]) == 0
    dumped2 = capsys.readouterr().out
    assert dumped2 == dumped


def test_bundled_configs_parse():
    from tegsolve import io
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = io.load_config(cfg_path)
        assert Path(cfg.material_file).exists(), cfg_path


@pytest.mark.parametrize("command,overrides,key", [
    ("report", {"tolerances": {"sweep_n": 2.9}}, "sweep_n"),
    ("report", {"tolerances": {"sweep_n": True}}, "sweep_n"),
    ("solve", {"tolerances": {"n_out": 1.5}}, "n_out"),
    ("solve", {"tolerances": {"n_out": True}}, "n_out"),
    ("sweep", {"mode": {"type": "sweep", "gamma_min": 0.0, "gamma_max": 2.0,
                        "n": 2.9}}, "'n'"),
    ("sweep", {"mode": {"type": "sweep", "gamma_min": 0.0, "gamma_max": 2.0,
                        "n": True}}, "'n'"),
], ids=["sweep_n_fraction", "sweep_n_bool", "n_out_fraction", "n_out_bool",
        "sweep_mode_n_fraction", "sweep_mode_n_bool"])
def test_count_that_is_not_a_whole_number_exit_code_and_record(
        tmp_path, capsys, command, overrides, key):
    # int() would truncate 2.9 to 2 and take True as 1
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert key in record["message"] and "whole number" in record["message"]
    assert not (tmp_path / "out").exists()


def test_whole_float_count_is_accepted(tmp_path, capsys):
    cfg = _write_config(tmp_path, tolerances={"n_out": 8.0, "sweep_n": 3.0})
    assert cli.main(["solve", "--config", str(cfg), "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["tolerances"] == {"n_out": 8, "sweep_n": 3}


@pytest.mark.parametrize("command", ["solve", "report", "sweep", "multiplicity"])
def test_subcommand_options_are_config_out_and_dump_config(command):
    # every setting lives in the config file; the command line only names
    # the file, redirects the output and dumps the normalised config
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--config", "--out", "--dump-config"}


def test_one_parser_serves_consecutive_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg = _write_config(
        tmp_path,
        material_file=str(CONFIG_DIR / "materials" / "clamped_three_solutions.json"),
        mode={"type": "multiplicity", "R_load": 8.0},
    )
    assert cli.main(["multiplicity", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out)["output_dir"] == str(tmp_path / "o")
    # no override: the next call writes to the config's own directory
    assert cli.main(["multiplicity", "--config", str(cfg)]) == 0
    h_curve = (tmp_path / "out" / "h_curve.csv").read_text().splitlines()
    assert len(h_curve) == 1 + loadmode.SCAN_SAMPLES
    sweep = _write_config(tmp_path, name="sweep.json", output_dir=str(tmp_path / "s"),
                          mode={"type": "sweep", "gamma_min": 0.0,
                                "gamma_max": 2.0, "n": 3})
    ratio = _write_config(tmp_path, name="ratio.json", output_dir=str(tmp_path / "r"))
    assert cli.main(["sweep", "--config", str(sweep)]) == 0
    assert cli.main(["solve", "--config", str(ratio)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("solve: ok")
    assert (tmp_path / "r" / "solution.csv").exists()
    assert not (tmp_path / "r" / "sweep.csv").exists()
