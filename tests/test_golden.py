"""Fresh `multiplicity` runs against the reference outputs tracked in out/.

Tolerances are relative, per quantity, and sit just above the drift measured
between environments (Python 3.11.7, numpy 2.4.6, scipy 1.17.1 against the
environment that wrote out/):

* H and its theta grid come from the quadrature alone and drift ~2e-15.
* A simple root's theta drifts ~1e-14.  Its y_c, R_total and eta were
  written by an RK45 materialisation at tol_ode 1e-12 and are now computed by
  the phase-space quadrature; the two agree to ~3e-11.
* gamma_equiv = R_load / (R_total - R_load) multiplies R_total's relative
  error by R_total / R_int, under 3 in these legs (measured 4.1e-11).
* The tangency root is the zero of a centred difference of H - |V|, which
  the cubic W^-1 spline holds to ~2.5e-9 of the exact stationary point;
  TANGENCY_ROOT_REL bounds its whole row (the drift of the earlier g^2
  minimiser was 1.054e-9).

Both h_curve.csv files were rewritten by the phase-space quadrature when the
scan window became the closed-form bracket [theta_lo, |V|/2].  The
two_solutions tangency row and its profile (solution_001.csv and .meta.json)
were rewritten when the tangency refinement changed from minimising
(H - |V|)^2, which landed on one crossing of the 2.7e-11-deep dip of the
quadrature H below |V|, 6.6e-6 relative from the exact stationary point, to
minimising H - |V| itself, which lands 9e-9 from it (the flatness limit).
They were rewritten again when the descent below T_h became one
theta-independent quadrature in p = sqrt(-2 W): H moved by at most 5.1e-16
relative, and the minimiser, which only the flatness of H fixes, moved from
-9.0e-9 to +1.0e-8 relative of the exact stationary point.

Every file of both legs was rewritten when the excursion above T_h moved
from panels in s to the turning-point angle.  The panels in s missed the
exact y_c by up to 9.1e-10 relative near the top of the scan, so the old
h_curve.csv rows with theta > 0 sat 2.6e-10 to 2.7e-10 relative off the
exact clamped H; the new ones sit within 1.3e-11, the floor of the cubic
W^-1 spline.  The roots moved with H: the three_solutions root near 0.4025
by 6.3e-11 relative, and the two_solutions tangency by 2.1e-9, within its
1e-7 pin to the exact stationary point.  Since that rewrite,
test_h_curve_matches_the_exact_H holds every h_curve.csv row, fresh and
tracked, to the exact H, not only to the last reference.

The solution_*.csv and .meta.json files of both legs were rewritten when
profiles moved from panels in s (80-point Gauss-Legendre, the edges of
[theta, 2 theta] reflected from [0, theta]) to the panels of y_c: the
excursion's angle panels mirrored onto [0, pi], then the descent's p-panels,
in about 1,024 sub-intervals of 16-point Gauss-Legendre.  The old profiles
sat 5.2e-11 to 1.6e-10 T_h off the exact profile, the new ones within
3.5e-12; test_profiles_match_the_exact_solution holds every profile, fresh
and tracked, to it.  h_curve.csv and multiplicity.csv were kept as they
were: y_c, R_total, gamma_equiv and eta of a fresh root now differ from the
tracked rows by at most 1.9e-15 relative.  out/baseline_ratio, unchanged
since the first release, is held to the exact parabola of the unit leg.

The two_solutions tangency row and its profile were rewritten once more when
the minimiser of +-(H - |V|), which lands anywhere on the sqrt(eps)-wide flat
bottom of H (8.3e-9 relative from the exact stationary point at the default
2,048 samples, -2.5e-8 to +3.2e-8 at 2,048 to 2,923 samples), gave way to the - to + sign change of the
centred difference of H, found by the same Brent root finder as the simple
roots.  theta moved from 1.1885506575511722 to 1.1885506505908976, 5.9e-9
relative, toward the stationary point, which it now misses by 2.4e-9 to
2.5e-9 at 2,048 to 2,923 samples; test_tangency_root_is_the_stationary_point
pins it at 5e-9.

out/baseline_sweep and out/baseline_report, on the same unit leg as
out/baseline_ratio, are held to its closed forms, fresh and tracked.  The
sweep's y_c, J, R_total, q_h and q_c miss them by at most 3.8e-16 relative
and eta_numeric, a ratio of q_h - q_c, by 2.3e-16 absolute (1.8e-16 at
gamma = 0, where it is 0); theta and every closed-form column, eta_sweep.csv
and report.json matched to the bit, and 1e-15 allows for the last ulps of
another environment.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tegsolve import cli

import oracles
from helpers import two_solution_problem

ROOT = Path(__file__).resolve().parents[1]

H_CURVE_REL = {"theta": 1e-15, "H": 1e-13}
ROOT_REL = {"theta": 4e-11, "y_c": 4e-11, "R_total": 4e-11,
            "gamma_equiv": 1.2e-10, "eta": 4e-11}
TANGENCY_ROOT_REL = 1.1e-9
EXACT_H_REL = 5e-11  # h_curve.csv against oracles.clamped_H
EXACT_T = 1e-11      # solution_*.csv T against oracles.clamped_profile_u, in T_h


def _read(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], np.array(rows[1:], dtype=float)


@pytest.fixture(scope="module", params=["three_solutions", "two_solutions"])
def run(request, tmp_path_factory):
    name = request.param
    out = tmp_path_factory.mktemp(name)
    assert cli.main(["multiplicity", "--config", str(ROOT / "configs" / f"{name}.json"),
                     "--out", str(out)]) == 0
    return out, ROOT / "out" / name


def test_h_curve_matches_reference(run):
    out, ref = run
    header, got = _read(out / "h_curve.csv")
    ref_header, want = _read(ref / "h_curve.csv")
    assert header == ref_header == ["theta", "H"]
    assert got.shape == want.shape
    for i, name in enumerate(header):
        np.testing.assert_allclose(got[:, i], want[:, i], rtol=H_CURVE_REL[name],
                                   atol=0, err_msg=name)


def test_h_curve_matches_the_exact_H(run):
    # both legs: kappa = 1, rho 2 below T_h and 2 + 48 (T - T_h) above, S_load 8
    for path in run:
        _, rows = _read(path / "h_curve.csv")
        exact = np.array([oracles.clamped_H(2.0, 48.0, 1.0, 8.0, th) for th in rows[:, 0]])
        np.testing.assert_allclose(rows[:, 1], exact, rtol=EXACT_H_REL, atol=0,
                                   err_msg=str(path))


def test_roots_match_reference(run):
    out, ref = run
    header, got = _read(out / "multiplicity.csv")
    ref_header, want = _read(ref / "multiplicity.csv")
    assert header == ref_header
    assert got.shape == want.shape
    tangency = header.index("tangency")
    np.testing.assert_array_equal(got[:, tangency], want[:, tangency])
    for g_row, w_row in zip(got, want):
        for i, name in enumerate(header):
            if i == tangency:
                continue
            rel = TANGENCY_ROOT_REL if w_row[tangency] else ROOT_REL[name]
            assert g_row[i] == pytest.approx(w_row[i], rel=rel, abs=0), name


def test_tangency_root_is_the_stationary_point(run):
    # the two_solutions tangency against the exact stationary point of the
    # clamped closed form H, in the fresh run and in the reference;
    # three_solutions has no tangency
    out, ref = run
    _, th1 = two_solution_problem()
    want = [th1] if ref.name == "two_solutions" else []
    for path in (out, ref):
        header, rows = _read(path / "multiplicity.csv")
        thetas = rows[rows[:, header.index("tangency")] == 1, header.index("theta")]
        assert thetas.tolist() == pytest.approx(want, rel=5e-9, abs=0)


def test_profiles_match_the_exact_solution(run):
    # kappa = 1, so T = u: the exact profile at the theta of each meta record,
    # with y = x y_c / L from the exact hitting time (L = 1)
    for path in run:
        files = sorted(path.glob("solution_*.csv"))
        assert len(files) == (3 if path.name.startswith("three") else 2)
        for csv_path in files:
            header, rows = _read(csv_path)
            assert header == ["x", "T", "q"]
            theta = json.loads(csv_path.with_suffix(".meta.json").read_text())["theta"]
            y = rows[:, 0] * oracles.clamped_hitting_time(2.0, 48.0, 1.0, theta)
            T = oracles.clamped_profile_u(2.0, 2.0, 48.0, theta, y)
            assert np.max(np.abs(rows[:, 1] - T)) <= EXACT_T * 2.0, str(csv_path)


def test_baseline_ratio_matches_the_exact_parabola(tmp_path):
    # kappa = rho = 1, alpha0 = 1, T_h 2, T_c 1, L = A_c = 1 and gamma 1:
    # theta = -7/4, |J| = y_c = 1/2, T = 2 - 7/4 y - y^2 / 2 with y = x / 2,
    # and eta = 2/15; the fresh solve and the reference tracked in out/
    assert cli.main(["solve", "--config", str(ROOT / "configs" / "baseline_ratio.json"),
                     "--out", str(tmp_path)]) == 0
    for path in (tmp_path, ROOT / "out" / "baseline_ratio"):
        header, rows = _read(path / "solution.csv")
        assert header == ["x", "T", "q"] and rows.shape == (257, 3)
        y = 0.5 * rows[:, 0]
        T = 2.0 - 1.75 * y - 0.5 * y * y
        assert np.max(np.abs(rows[:, 1] - T)) <= 1e-12 * 2.0, str(path)
        meta = json.loads((path / "solution.meta.json").read_text())
        assert meta["theta"] == -1.75
        assert meta["y_c"] == pytest.approx(0.5, rel=1e-14, abs=0)
        assert meta["eta"] == pytest.approx(2.0 / 15.0, rel=1e-14, abs=0)


SWEEP_REL = 1e-15      # y_c, J, R_total, q_h, q_c: measured 3.8e-16
ETA_NUMERIC_ABS = 1e-15  # (q_h - q_c) / q_h: measured 2.3e-16
CLOSED_FORM_REL = 1e-15  # theta and the closed forms: measured 0


def _unit_eta(gamma):
    """The unit leg's efficiency at load ratio gamma."""
    return gamma / ((1.0 + gamma) ** 2 + 2.0 * (1.0 + gamma) - 0.5)


def test_baseline_sweep_matches_the_exact_unit_leg(tmp_path):
    # the unit leg of baseline_ratio at 26 gamma in [0, 5]; with c = 1/(1+gamma):
    # theta = c/2 - 1/c, y_c = J = c, R_total = 1 + gamma, q_h = c (2 - theta)
    # and q_c = c (1 + c - theta), and both efficiencies are _unit_eta
    assert cli.main(["sweep", "--config", str(ROOT / "configs" / "baseline_sweep.json"),
                     "--out", str(tmp_path)]) == 0
    for path in (tmp_path, ROOT / "out" / "baseline_sweep"):
        header, rows = _read(path / "sweep.csv")
        assert header == ["gamma", "eta_closed_form", "eta_numeric", "theta", "y_c",
                          "J", "R_total", "q_h", "q_c"]
        col = dict(zip(header, rows.T))
        g = col["gamma"]
        np.testing.assert_array_equal(g, np.linspace(0.0, 5.0, 26))
        c = 1.0 / (1.0 + g)
        theta = 0.5 * c - 1.0 / c
        for name, want, rel in (
                ("theta", theta, CLOSED_FORM_REL),
                ("eta_closed_form", _unit_eta(g), CLOSED_FORM_REL),
                ("y_c", c, SWEEP_REL), ("J", c, SWEEP_REL),
                ("R_total", 1.0 + g, SWEEP_REL),
                ("q_h", c * (2.0 - theta), SWEEP_REL),
                ("q_c", c * (1.0 + c - theta), SWEEP_REL)):
            np.testing.assert_allclose(col[name], want, rtol=rel, atol=0,
                                       err_msg=f"{path} {name}")
        np.testing.assert_allclose(col["eta_numeric"], _unit_eta(g), rtol=0,
                                   atol=ETA_NUMERIC_ABS, err_msg=str(path))


def test_baseline_report_matches_the_exact_unit_leg(tmp_path):
    # z = 1, gamma_opt = sqrt(1 + z T_m) = sqrt(2.5), eta(1) = 2/15, the hot
    # flux relative to |J| is 7/4 at gamma 1, and eta_sweep.csv is _unit_eta
    # at 257 gamma in [0, 3 gamma_opt]
    assert cli.main(["report", "--config", str(ROOT / "configs" / "baseline_report.json"),
                     "--out", str(tmp_path)]) == 0
    g_opt = np.sqrt(2.5)
    for path in (tmp_path, ROOT / "out" / "baseline_report"):
        report = json.loads((path / "report.json").read_text())
        assert report["V"] == 1.0 and report["gamma"] == 1.0 and report["decreasing"]
        for name, want in (("z", 1.0), ("gamma_opt", g_opt), ("eta_of_gamma", 2.0 / 15.0),
                           ("hot_flux_rel", 1.75),
                           ("eta_max", 0.5 * (g_opt - 1.0) / (g_opt + 0.5))):
            assert report[name] == pytest.approx(want, rel=CLOSED_FORM_REL, abs=0), name
        header, rows = _read(path / "eta_sweep.csv")
        assert header == ["gamma", "eta"] and rows.shape == (257, 2)
        np.testing.assert_allclose(rows[:, 0], np.linspace(0.0, 3.0 * g_opt, 257),
                                   rtol=CLOSED_FORM_REL, atol=0)
        np.testing.assert_allclose(rows[:, 1], _unit_eta(rows[:, 0]),
                                   rtol=CLOSED_FORM_REL, atol=0, err_msg=str(path))
