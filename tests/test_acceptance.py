"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import tegsolve as tg
from tegsolve.ivp import TOL_ENERGY

import oracles
from helpers import (quad_K, random_spec, three_solution_problem, two_solution_problem,
                     unit_spec)
from oracles import TOL_EVENT


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_01_three_solution_regression():
    with criterion(1, "three-solution load-resistance regression"):
        prob = three_solution_problem()
        t0 = time.perf_counter()
        res = tg.enumerate_solutions(prob)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.2f} s exceeds 5 s"
        assert len(res) == 3
        expected_theta = (0.402, math.sqrt(3.0) / 2.0, 1.483)
        expected_R = (10.24, 10.99, 12.41)
        for root, th, R in zip(res.roots, expected_theta, expected_R):
            assert abs(root.theta - th) <= 1e-3
            assert abs(root.R_total - R) <= 0.01


def test_02_two_solution_regression():
    with criterion(2, "two-solution tangency regression"):
        prob, th_stationary = two_solution_problem()
        t0 = time.perf_counter()
        res = tg.enumerate_solutions(prob)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.2f} s exceeds 5 s"
        assert len(res) == 2
        simple, tangent = res.roots
        assert abs(simple.theta - 0.357) <= 1e-3
        assert not simple.tangency
        assert abs(tangent.theta - 1.189) <= 1e-3
        assert tangent.tangency, "stationary-level root must be flagged"
        assert abs(simple.R_total - 10.18) <= 0.01
        assert abs(tangent.R_total - 11.69) <= 0.01


def test_03_closed_form_vs_numeric_efficiency():
    with criterion(3, "closed-form vs flux-ratio efficiency"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for idx in range(24):  # cycles every property family
            spec = random_spec(rng, idx)
            gamma = rng.uniform(0.0, 5.0)
            sol = tg.solve_ratio_mode(spec, gamma)
            eta_num = sol.eta_numeric
            eta_cf = tg.efficiency(spec, gamma)
            assert abs(eta_num - eta_cf) <= 1e-6, (idx, eta_num, eta_cf)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.2f} s exceeds 30 s"


def test_04_shooting_function_oracle():
    with criterion(4, "shooting function vs trajectory integral"):
        rng = np.random.default_rng(103)
        specs = [
            unit_spec(),
            tg.GeneratorSpec(
                pair=tg.MaterialPair(tg.reciprocal(1.3),
                                     tg.log_affine(0.9, 0.36, 1.0), 1.1),
                T_h=2.0, T_c=1.0),
        ]
        for spec in specs:
            for theta in rng.uniform(-5.0, 5.0, size=25):
                theta = float(theta)
                closed = tg.shooting_function(spec, theta)
                traj = oracles.integrate_ivp(spec, theta, tol_ode=1e-12)
                integrated = oracles.shooting_integral(traj, spec)
                assert abs(integrated - closed) <= 1e-8 * max(1.0, closed)
                sym = tg.shooting_function(spec, -theta) + 2.0 * theta
                assert abs(closed - sym) <= 1e-10 * max(1.0, closed)


def test_05_grid_argmax_matches_gamma_opt():
    with criterion(5, "efficiency maximizer on a 1e4-point grid"):
        rng = np.random.default_rng(105)
        for idx in range(10):
            spec = random_spec(rng, idx)
            _, gamma_opt = tg.max_efficiency(spec)
            gammas = np.linspace(0.0, 2.5 * gamma_opt, 10_000)
            etas = np.array([tg.efficiency(spec, float(g)) for g in gammas])
            step = gammas[1] - gammas[0]
            assert abs(gammas[int(np.argmax(etas))] - gamma_opt) <= step


def test_06_decreasing_criterion_equivalence():
    with criterion(6, "decreasing-profile criterion vs solved slope"):
        for gamma in (0.0, 0.5, 1.5):
            z_star = 2.0 * (1.0 + gamma) ** 2  # unit material: dT = r = 1
            for factor in (0.8, 0.95, 1.05, 1.25):
                spec = unit_spec(alpha0=math.sqrt(z_star * factor))
                predicted = tg.is_strictly_decreasing(spec, gamma)
                assert predicted == (factor <= 1.0)
                sol = tg.solve_ratio_mode(spec, gamma, n_out=1024)
                h = sol.x[1] - sol.x[0]
                slope0 = (-3.0 * sol.T[0] + 4.0 * sol.T[1] - sol.T[2]) / (2.0 * h)
                assert bool(slope0 <= 0) == predicted, (gamma, factor, slope0)


def test_07_sherman_relation_four_families():
    with criterion(7, "Sherman hot-flux relation, four material families"):
        T_h, T_c = 2.0, 1.0
        T_m = 0.5 * (T_h + T_c)
        families = [
            tg.MaterialPair(tg.constant(1.0), tg.linear(0.8 / T_m, 0.0), 0.8),
            tg.MaterialPair(tg.linear(0.8 / T_m, 0.0), tg.constant(1.0), 0.8),
            tg.MaterialPair(tg.reciprocal(2.0), tg.constant(0.5), 0.9),
            tg.MaterialPair(tg.reciprocal(1.3),
                            tg.log_affine(0.9, 0.36, T_m), 1.1),
        ]
        for pair in families:
            spec = tg.GeneratorSpec(pair=pair, T_h=T_h, T_c=T_c)
            lhs, rhs = tg.sherman_relation(spec)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_08_exact_solution_families():
    with criterion(8, "exact profile families (quadratic and trig/parabola)"):
        # constant properties: u affine-quadratic in y, both profile shapes
        for alpha0, gamma in ((1.0, 0.0), (1.0, 1.0), (3.0, 0.0)):
            spec = unit_spec(alpha0=alpha0)
            sol = tg.solve_ratio_mode(spec, gamma)
            theta = tg.matched_initial_slope(spec, gamma)
            ys = sol.x * (sol.y_c / spec.L)
            exact = 2.0 + theta * ys - 0.5 * ys ** 2  # K identity here
            assert np.max(np.abs(sol.T - exact)) <= 1e-8
        # clamped instance: trig arc then parabola for each enumerated root
        prob = three_solution_problem()
        res = tg.enumerate_solutions(prob)
        for root in res.roots:
            sol = root.solution
            exact_u = oracles.clamped_profile_u(2.0, 2.0, 48.0, root.theta,
                                                sol.x * root.y_c)
            assert np.max(np.abs(sol.T - exact_u)) <= 1e-6


def test_09_property_suite_on_randomized_specs():
    with criterion(9, "transform/trajectory property suite"):
        rng = np.random.default_rng(109)
        for idx in range(10):
            spec = random_spec(rng, idx)
            gamma = rng.uniform(0.0, 5.0)

            # K on the operating range against quadrature of kappa
            Ts = rng.uniform(spec.T_c, 1.5 * spec.T_h, size=20)
            for T, u in zip(Ts, spec.K(Ts)):
                ref = quad_K(spec, float(T))
                assert abs(u - ref) <= 1e-12 * max(1.0, abs(ref))

            sol = tg.solve_ratio_mode(spec, gamma)

            # |J| = y_c / L and the nonlocal current constraint
            assert abs(sol.J) == sol.y_c / spec.L
            assert abs(sol.J - spec.V / (sol.R_total * spec.A_c)) \
                <= 1e-8 * abs(sol.J)

            # T bounded below by the cold side
            assert np.min(sol.T) >= spec.T_c - 1e-8

            # K(T(x)) concave along the grid
            K = spec.K(np.maximum(sol.T, spec.T_c))
            second = K[:-2] - 2.0 * K[1:-1] + K[2:]
            assert np.all(second <= 1e-10 * max(1.0, float(np.max(np.abs(K)))))

            # energy identity on the output profile, w from q = -w|J| + alpha0 T J
            scale = max(1.0, sol.theta ** 2 + 2.0 * spec.rk)
            w = (spec.alpha0 * sol.T * sol.J - sol.q) / abs(sol.J)
            for w_i, T_i in zip(w, sol.T):
                W = tg.rho_kappa_integral(spec.pair, spec.T_c,
                                           max(float(T_i), spec.T_c)) - spec.rk
                assert abs(w_i ** 2 - (sol.theta ** 2 - 2.0 * W)) \
                    <= TOL_ENERGY * scale

            # the same identity at every sample of an oracle trajectory, which
            # integrates tighter than its 1e-10 default for identity-class checks
            tr = oracles.integrate_ivp(spec, sol.theta, tol_ode=1e-12)
            for w_i, T_i in zip(tr.u_y, tr.T):
                W = tg.rho_kappa_integral(spec.pair, spec.T_c,
                                           max(float(T_i), spec.T_c)) - spec.rk
                assert abs(w_i ** 2 - (tr.theta ** 2 - 2.0 * W)) \
                    <= TOL_ENERGY * scale

            # event accuracy at the hitting time
            assert abs(tr.u[-1] - spec.u_c) <= TOL_EVENT * max(1.0, abs(spec.u_c))
