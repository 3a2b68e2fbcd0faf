"""Trajectory integration, reconstruction, residuals and cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import tegsolve as tg
from tegsolve.errors import NonPositiveHotFlux

import oracles
from helpers import (KAPPA_FAMILIES, make_model, quad_K, random_spec,
                     three_solution_problem, unit_spec)
from oracles import TOL_ENERGY, TOL_ETA, TOL_EVENT


# ---------------------------------------------------------------------------
# worked parabola cases (constant properties: u(y) = u_h + theta y - y^2/2)
# ---------------------------------------------------------------------------

def test_parabola_theta_zero():
    spec = unit_spec()
    tr = oracles.integrate_ivp(spec, 0.0)
    assert tr.y_c == pytest.approx(math.sqrt(2.0), abs=1e-10)
    ys = np.linspace(0.0, tr.y_c, 40)
    u, w, T = tr.at(ys)
    assert np.max(np.abs(u - (2.0 - 0.5 * ys ** 2))) < 1e-9
    assert tr.y_peak is None  # theta = 0 starts at the turning point


def test_parabola_theta_negative():
    tr = oracles.integrate_ivp(unit_spec(), -1.0)
    assert tr.y_c == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-10)
    ys = np.linspace(0.0, tr.y_c, 40)
    u, _, _ = tr.at(ys)
    assert np.max(np.abs(u - (2.0 - ys - 0.5 * ys ** 2))) < 1e-9


def test_parabola_theta_positive_symmetry():
    tr = oracles.integrate_ivp(unit_spec(), 1.0)
    assert tr.y_peak == pytest.approx(1.0, abs=1e-9)
    assert tr.y_c == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-9)
    # u symmetric about the turning point
    s = np.linspace(0.0, 0.9, 15)
    u_left = tr.at(tr.y_peak - s)[0]
    u_right = tr.at(tr.y_peak + s)[0]
    assert np.max(np.abs(u_left - u_right)) < 1e-9


# ---------------------------------------------------------------------------
# trajectory invariants
# ---------------------------------------------------------------------------

def _check_trajectory_invariants(spec, tr):
    u_scale = max(1.0, abs(spec.u_c))
    assert tr.u[0] == pytest.approx(spec.u_h, abs=1e-12 * max(1.0, spec.u_h))
    assert abs(tr.u[-1] - spec.u_c) <= TOL_EVENT * u_scale
    # slope nonincreasing, u concave
    assert np.all(np.diff(tr.u_y) <= 1e-10 * max(1.0, np.max(np.abs(tr.u_y))))
    # u - u_c crosses zero exactly once: positive until the terminal hit
    assert np.all(tr.u[:-1] > spec.u_c - TOL_EVENT * u_scale)
    # energy identity at every sample
    r = spec.rk
    scale = max(1.0, tr.theta ** 2 + 2.0 * r)
    for u_i, w_i, T_i in zip(tr.u, tr.u_y, tr.T):
        W = tg.rho_kappa_integral(spec.pair, spec.T_c, max(float(T_i), spec.T_c)) - r
        assert abs(w_i ** 2 - (tr.theta ** 2 - 2.0 * W)) <= TOL_ENERGY * scale


def test_trajectory_invariants_random():
    # identity-class tolerances (1e-8 energy) need the tighter integration on
    # kelvin-scale specs; the 1e-10 default is for general use
    rng = np.random.default_rng(13)
    for idx in range(8):
        spec = random_spec(rng, idx)
        theta = tg.matched_initial_slope(spec, rng.uniform(0.0, 5.0))
        _check_trajectory_invariants(
            spec, oracles.integrate_ivp(spec, theta, tol_ode=1e-12))


def test_symmetry_of_hitting_times():
    rng = np.random.default_rng(19)
    for idx in range(6):
        spec = random_spec(rng, idx)
        theta = abs(tg.matched_initial_slope(spec, 0.0)) + rng.uniform(0.1, 1.0)
        up = oracles.integrate_ivp(spec, theta, tol_ode=1e-12)
        down = oracles.integrate_ivp(spec, -theta, tol_ode=1e-12)
        lhs = up.y_c
        rhs = 2.0 * up.y_peak + down.y_c
        # two independent trajectories: global error ~100x the local tolerance
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


def test_shooting_integral_matches_closed_form():
    rng = np.random.default_rng(37)
    for idx in range(8):
        spec = random_spec(rng, idx)
        theta = rng.uniform(-5.0, 5.0)
        tr = oracles.integrate_ivp(spec, theta, tol_ode=1e-12)
        got = oracles.shooting_integral(tr, spec)
        expect = tg.shooting_function(spec, theta)
        assert abs(got - expect) <= 1e-8 * max(1.0, expect)


def test_quadrature_hitting_time_matches_ivp():
    rng = np.random.default_rng(43)
    for idx in range(8):
        spec = random_spec(rng, idx)
        q = tg.HittingTimeQuadrature(spec)
        for theta in rng.uniform(-4.0, 4.0, size=3):
            y_ivp = oracles.integrate_ivp(spec, float(theta), tol_ode=1e-12).y_c
            assert q.y_c(float(theta)) == pytest.approx(y_ivp, rel=1e-9, abs=1e-11)


def test_quadrature_grid_extension_for_large_slopes():
    # theta far above the initial energy window forces the cumulative grid to
    # extend (and the trajectory to climb well above T_h) before descending
    spec = unit_spec(alpha0=30.0)
    q = tg.HittingTimeQuadrature(spec)
    y_ref = oracles.integrate_ivp(spec, 25.0, tol_ode=1e-12).y_c
    assert y_ref > 50.0  # long climb: y_peak = 25 for unit resistivity
    assert q.y_c(25.0) == pytest.approx(y_ref, rel=1e-9)


def test_materialized_profile_matches_rk45():
    # the quadrature's profile against an independent RK45 trajectory of the
    # same slope; R_int is the closed form L I(theta) / (y_c A_c) against the
    # integrated resistivity state, which carries the integrator's error
    rng = np.random.default_rng(29)
    for idx in range(8):
        spec = random_spec(rng, idx)
        gamma = rng.uniform(0.0, 5.0)
        sol = tg.solve_ratio_mode(spec, gamma)
        tr = oracles.integrate_ivp(spec, sol.theta, tol_ode=1e-12)
        assert sol.y_c == pytest.approx(tr.y_c, rel=1e-9)
        T_ref = tr.at(sol.x * (tr.y_c / spec.L))[2]
        assert np.max(np.abs(sol.T - T_ref)) <= 1e-9 * spec.T_h
        R_int = spec.L * tr.constraint_at(tr.y_c) / (tr.y_c * spec.A_c)
        assert sol.R_total / (1.0 + gamma) == pytest.approx(R_int, rel=1e-8)


def test_materialize_where_rk45_event_polish_fails():
    # table kappa x reciprocal rho, T_c 108.5 K: at theta = 4 sqrt(2r) the
    # hitting time is ~3.6e5, and the RK45 oracle's event polish does not
    # converge at any tol_ode from 1e-10 to 1e-13
    rng = np.random.default_rng(71)
    for idx in range(24):
        spec = random_spec(rng, idx)
    theta = 4.0 * math.sqrt(2.0 * spec.rk)
    q = tg.HittingTimeQuadrature(spec)
    sol = q.materialize(theta, R_load=0.0)
    # two partitions of one integral: 6.4e-16 apart when measured
    assert sol.y_c == pytest.approx(364301.87, rel=1e-8)
    assert abs(sol.y_c - q.y_c(theta)) <= 1e-14 * sol.y_c
    assert sol.T[0] == spec.T_h
    assert abs(sol.T[-1] - spec.T_c) <= 1e-12 * spec.T_c  # 8.8e-13 K measured
    w = (spec.alpha0 * sol.T * sol.J - sol.q) / abs(sol.J)
    W = np.array([tg.rho_kappa_integral(spec.pair, spec.T_c, float(T))
                  for T in sol.T]) - spec.rk
    scale = max(1.0, theta ** 2 + 2.0 * spec.rk)
    assert np.max(np.abs(w ** 2 - (theta ** 2 - 2.0 * W))) <= TOL_ENERGY * scale


@pytest.mark.parametrize("rho_e", [0.02, 0.005])
@pytest.mark.parametrize("theta", [5.0, 20.0])
def test_materialize_with_panel_below_an_ulp_of_y(theta, rho_e):
    # a table knot 1e-13 K above T_h ends an angle panel whose sub-intervals
    # add y steps below an ulp of y_c (spline knots that are dropped), and
    # rho falls 50x or 200x over the next kelvin; the profile integrates on
    # the panels of y_c, whose excursion grades toward that kink
    spec = tg.GeneratorSpec(
        pair=tg.MaterialPair(tg.constant(1.0), oracles.steep_table_rho(rho_e), 3.0),
        T_h=2.0, T_c=1.0)
    q = tg.HittingTimeQuadrature(spec)
    exact = oracles.steep_hitting_time(rho_e, theta)
    assert abs(q.y_c(theta) - exact) <= 1e-12 * exact
    sol = q.materialize(theta, R_load=1.0)
    # 2.0e-13 when measured
    assert abs(sol.y_c - exact) <= 1e-12 * exact
    assert sol.T[0] == spec.T_h
    assert abs(sol.T[-1] - spec.T_c) <= 1e-12


def test_three_solutions_profiles_match_the_exact_solution():
    # kappa = 1, so T = u: the exact profile is a trigonometric arc above T_h
    # and a parabola below it (4.4e-12 T_h when measured)
    prob = three_solution_problem()
    spec = prob.spec
    q = tg.HittingTimeQuadrature(spec)
    for theta in np.linspace(-3.0, 0.5 * abs(spec.V), 81):
        sol = q.materialize(float(theta), R_load=prob.R_load)
        y_c = oracles.clamped_hitting_time(2.0, 48.0, 1.0, float(theta))
        T = oracles.clamped_profile_u(spec.u_h, 2.0, 48.0, float(theta),
                                      sol.x * y_c / spec.L)
        assert np.max(np.abs(sol.T - T)) <= 1e-10 * spec.T_h, theta


# the worst |T - T_RK45| / T_h over the first 16 random legs at each theta / P
# as the panels in s measured it: the profile must not be worse
RK45_PROFILE_BOUND = {-1.0: 7.5e-11, 0.5: 1.2e-9, 1.0: 1.8e-8, 2.0: 8.6e-7}


def test_materialized_profiles_on_random_legs_match_rk45():
    rng = np.random.default_rng(71)
    for idx in range(16):
        spec = random_spec(rng, idx)
        q = tg.HittingTimeQuadrature(spec)
        P = math.sqrt(2.0 * spec.rk)
        for f, bound in RK45_PROFILE_BOUND.items():
            sol = q.materialize(f * P, R_load=1.0)
            tr = oracles.integrate_ivp(spec, f * P, tol_ode=1e-12)
            T_ref = tr.at(sol.x * (tr.y_c / spec.L))[2]
            assert np.max(np.abs(sol.T - T_ref)) <= bound * spec.T_h, (idx, f)


# ---------------------------------------------------------------------------
# ratio-mode solve and reconstruction
# ---------------------------------------------------------------------------

def test_solve_ratio_mode_unit_gamma_one():
    spec = unit_spec()
    sol = tg.solve_ratio_mode(spec, 1.0)
    assert sol.eta_numeric == pytest.approx(tg.efficiency(spec, 1.0), abs=1e-9)
    assert abs(sol.J) == pytest.approx(sol.y_c / spec.L, abs=0)
    assert sol.T[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.T[-1] == pytest.approx(1.0, abs=1e-8)


def test_solve_constant_properties_profile_is_quadratic():
    spec = unit_spec()
    sol = tg.solve_ratio_mode(spec, 0.0)
    # exact: u = K(T) = T here; u(y) = u_h + theta* y - y^2/2, y = x * y_c / L
    theta = tg.matched_initial_slope(spec, 0.0)
    ys = sol.x * (sol.y_c / spec.L)
    exact = 2.0 + theta * ys - 0.5 * ys ** 2
    assert np.max(np.abs(sol.T - exact)) <= 1e-8


def test_solve_zero_voltage_branches():
    # T_h = T_c: constant profile, no current
    sol = tg.solve_ratio_mode(unit_spec(T_h=1.0, T_c=1.0), 1.0)
    assert sol.J == 0.0
    assert sol.eta_numeric == 0.0
    assert np.max(np.abs(sol.T - 1.0)) == 0.0
    # alpha0 = 0 with a temperature gap: profile affine in K, eta = 0
    pair = tg.MaterialPair(tg.linear(1.0, 0.0), tg.constant(1.0), 0.0)
    spec = tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0)
    sol = tg.solve_ratio_mode(spec, 0.7)
    assert sol.J == 0.0
    u = spec.u_h + (spec.u_c - spec.u_h) * sol.x / spec.L
    exact_T = np.sqrt(2.0 * (u - 1.0) + 1.0)  # K(T) = 1 + (T^2-1)/2 inverted
    assert np.max(np.abs(sol.T - exact_T)) < 1e-9


@pytest.mark.parametrize("kap_fam", KAPPA_FAMILIES)
def test_zero_voltage_profile_on_every_kappa_family(kap_fam):
    # alpha0 = 0: T = K^{-1}(u) with u affine in x, against K by quad and
    # its inverse by brentq; R_int by quad of rho along that reference
    rng = np.random.default_rng(KAPPA_FAMILIES.index(kap_fam) + 5)
    T_c = rng.uniform(0.5, 400.0)
    T_h = T_c * rng.uniform(1.05, 3.0)
    pair = tg.MaterialPair(kappa=make_model(rng, kap_fam, T_c, T_h),
                           rho=make_model(rng, "log_affine", T_c, T_h), alpha0=0.0)
    spec = tg.GeneratorSpec(pair=pair, T_h=T_h, T_c=T_c,
                            L=rng.uniform(0.5, 2.0), A_c=rng.uniform(0.5, 2.0))
    gamma = rng.uniform(0.0, 3.0)
    sol = tg.solve_ratio_mode(spec, gamma, n_out=16)
    u_h = quad_K(spec, T_h)

    def T_ref(x):
        u = u_h + (T_c - u_h) * (x / spec.L)
        if not T_c < u < u_h:
            return T_h if u >= u_h else T_c
        return brentq(lambda T: quad_K(spec, T) - u, T_c, T_h,
                      xtol=1e-14 * T_h, rtol=1e-15)

    assert sol.J == 0.0 and sol.eta_numeric == 0.0
    assert sol.T[0] == pytest.approx(T_h, rel=1e-15)
    assert sol.T[-1] == T_c
    T = np.array([T_ref(x) for x in sol.x])
    assert np.max(np.abs(sol.T - T)) <= 1e-11 * T_h
    # x where T_ref crosses a kink, so that quad sees a smooth integrand
    x_k = [spec.L * (u_h - quad_K(spec, t)) / (u_h - T_c)
           for m in (pair.kappa, pair.rho) for t in m.kinks() if T_c < t < T_h]
    R, _ = quad(lambda x: pair.rho.value(T_ref(x)), 0.0, spec.L,
                epsabs=0.0, epsrel=1e-13, points=x_k or None, limit=200)
    assert sol.R_total / (1.0 + gamma) == pytest.approx(R / spec.A_c, rel=1e-12)


@pytest.mark.parametrize("solve", [
    lambda: tg.solve_ratio_mode(unit_spec(), 1.0, n_out=0),
    lambda: tg.solve_ratio_mode(unit_spec(alpha0=0.0), 1.0, n_out=0),
    lambda: tg.solve_ratio_mode(unit_spec(T_h=1.0), 1.0, n_out=-3),
    lambda: tg.HittingTimeQuadrature(unit_spec()).materialize(0.5, R_load=1.0, n_out=0),
    lambda: tg.enumerate_solutions(three_solution_problem(), n_out=0),
], ids=["ratio_mode", "zero_voltage", "zero_gap", "materialize", "enumerate"])
def test_n_out_below_one_raises_domain_error(solve):
    with pytest.raises(tg.DomainError, match="n_out"):
        solve()


@pytest.mark.parametrize("load", [
    {}, {"gamma": 1.0, "R_load": 1.0}, {"gamma": math.inf}, {"gamma": math.nan},
    {"gamma": -1.0}, {"R_load": math.inf}, {"R_load": math.nan}, {"R_load": -1.0},
    {"gamma": None, "R_load": None},
], ids=["neither", "both", "gamma_inf", "gamma_nan", "gamma_negative", "R_load_inf",
        "R_load_nan", "R_load_negative", "both_none"])
def test_materialize_needs_exactly_one_finite_non_negative_load(load):
    with pytest.raises(tg.DomainError, match="exactly one of gamma and R_load"):
        tg.HittingTimeQuadrature(unit_spec()).materialize(0.5, **load)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
@pytest.mark.parametrize("T_h", [2.0, 1.0], ids=["V_nonzero", "V_zero"])
def test_solve_ratio_mode_rejects_non_finite_gamma(gamma, T_h):
    with pytest.raises(tg.DomainError):
        tg.solve_ratio_mode(unit_spec(T_h=T_h), gamma)

def test_solve_negative_alpha_matches_positive():
    pos = tg.solve_ratio_mode(unit_spec(alpha0=1.3), 0.8)
    neg = tg.solve_ratio_mode(unit_spec(alpha0=-1.3), 0.8)
    assert neg.J == pytest.approx(-pos.J, rel=1e-12)
    assert np.max(np.abs(neg.T - pos.T)) < 1e-10
    assert neg.eta_numeric == pytest.approx(pos.eta_numeric, rel=1e-10)


def test_numeric_efficiency_values():
    spec = unit_spec()
    sol = tg.solve_ratio_mode(spec, 1.0)
    assert sol.eta_numeric == pytest.approx(2.0 / 15.0, abs=1e-6)
    _, gamma_opt = tg.max_efficiency(spec)
    sol = tg.solve_ratio_mode(spec, gamma_opt)
    assert sol.eta_numeric == pytest.approx(tg.max_efficiency(spec)[0], abs=1e-6)
    zero = tg.solve_ratio_mode(unit_spec(T_h=1.0, T_c=1.0), 1.0)
    assert zero.eta_numeric == 0.0


def test_numeric_efficiency_rejects_nonpositive_hot_flux():
    # unit leg: q_h = |J| (alpha0 T_h - theta) is 0 at theta = 2 and negative
    # above; the flux ratio is no efficiency there
    quadrature = tg.HittingTimeQuadrature(unit_spec())
    for bad in (dataclasses.replace(tg.solve_ratio_mode(unit_spec(), 1.0), q_h=-1.0),
                quadrature.materialize(2.0, gamma=1.0),
                quadrature.materialize(2.5, gamma=1.0)):
        assert bad.q_h <= 0
        with pytest.raises(NonPositiveHotFlux):
            bad.eta_numeric


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(57)
    for idx in range(6):
        spec = random_spec(rng, idx)
        gamma = rng.uniform(0.0, 5.0)
        sol = tg.solve_ratio_mode(spec, gamma)
        assert abs(sol.eta_numeric - tg.efficiency(spec, gamma)) <= 1e-6


def test_ratio_mode_retries_on_cold_end_error():
    # a leg whose cold-end temperature once missed T_c by 1.4 mK while the
    # current was consistent to 3e-16, which put eta 2.23e-6 off the closed form
    pair = tg.MaterialPair(kappa=tg.reciprocal(736.9935759190353),
                           rho=tg.constant(0.6937588574268294),
                           alpha0=0.08729082737537555)
    spec = tg.GeneratorSpec(pair=pair, T_h=557.587625939021,
                            T_c=210.06361826865538, L=1.547092767023197,
                            A_c=0.5654076419147787)
    gamma = 0.17515353567690817
    sol = tg.solve_ratio_mode(spec, gamma)
    assert abs(sol.eta_numeric - tg.efficiency(spec, gamma)) <= TOL_ETA
    cold = abs(spec.alpha0 * sol.J * (sol.T[-1] - spec.T_c))
    assert cold <= 0.1 * TOL_ETA * abs(sol.q_h)


def test_slope_sign_matches_decreasing_criterion():
    # straddle z dT = 2 (1+gamma)^2 on the unit material by tuning alpha0
    gamma = 0.5
    z_star = 2.0 * (1.0 + gamma) ** 2  # dT = 1, r = 1
    for factor, expect_decreasing in ((0.9, True), (0.98, True),
                                      (1.02, False), (1.1, False)):
        spec = unit_spec(alpha0=math.sqrt(z_star * factor))
        assert tg.is_strictly_decreasing(spec, gamma) is expect_decreasing
        sol = tg.solve_ratio_mode(spec, gamma, n_out=1024)
        h = sol.x[1] - sol.x[0]
        slope0 = (-3.0 * sol.T[0] + 4.0 * sol.T[1] - sol.T[2]) / (2.0 * h)
        assert bool(slope0 <= 0) == expect_decreasing


# ---------------------------------------------------------------------------
# residuals and convergence
# ---------------------------------------------------------------------------

def test_verify_solution_smooth():
    spec = unit_spec()
    sol = tg.solve_ratio_mode(spec, 1.0)
    rep = tg.verify_solution(sol, spec)
    assert rep.ode_residual <= 1e-9
    assert rep.boundary_error_hot <= 1e-12
    assert rep.boundary_error_cold <= 1e-8
    assert rep.nonlocal_residual <= 1e-10


def test_verify_solution_detects_corruption():
    spec = unit_spec()
    sol = tg.solve_ratio_mode(spec, 1.0)
    T_bad = sol.T.copy()
    T_bad[len(T_bad) // 2] += 1e-3
    bad = dataclasses.replace(sol, T=T_bad)
    rep = tg.verify_solution(bad, spec)
    assert rep.ode_residual > 1.0  # 1e-3 bump against h^2 ~ 1.5e-5


def test_verify_solution_harmonic_zero_voltage():
    pair = tg.MaterialPair(tg.linear(1.0, 0.0), tg.constant(1.0), 0.0)
    spec = tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0)
    sol = tg.solve_ratio_mode(spec, 0.0)
    rep = tg.verify_solution(sol, spec)
    assert sol.J == 0.0
    assert rep.ode_residual <= 1e-6
    assert rep.nonlocal_residual == 0.0


def test_residual_second_order_in_h():
    # the second-difference defect of the exact solution is O(h^2); measured
    # on grids coarse enough that truncation dominates dense-output noise
    pair = tg.MaterialPair(tg.constant(1.0), tg.linear(1.0, 0.0), 2.0)
    spec = tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0)
    r_coarse = tg.verify_solution(tg.solve_ratio_mode(spec, 1.0, n_out=32), spec)
    r_fine = tg.verify_solution(tg.solve_ratio_mode(spec, 1.0, n_out=64), spec)
    ratio = r_coarse.ode_residual / r_fine.ode_residual
    assert 3.0 <= ratio <= 5.5


def test_fixed_step_rk4_order():
    # u'' = -u via rho(T) = T, kappa = 1; exact u = 2 cos y + theta sin y.
    # Observed order approaches 4 from below (O(h) bias in the ratio), so the
    # study asserts the fitted slope and per-level reduction factors jointly.
    pair = tg.MaterialPair(tg.constant(1.0), tg.linear(1.0, 0.0), 1.0)
    spec = tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0)
    theta, y_end = -0.5, 0.5
    exact = 2.0 * math.cos(y_end) + theta * math.sin(y_end)
    ns = (16, 32, 64, 128, 256)
    errs = [abs(oracles.integrate_fixed_step(spec, theta, y_end, n)[0] - exact)
            for n in ns]
    ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:])]
    assert all(r >= 15.5 for r in ratios)
    assert ratios[-1] >= 15.9
    slope = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
    assert slope >= 3.95


def test_tiny_voltage_against_a_big_load_finds_the_bracketed_root():
    # tiny Seebeck voltage against a big load: the root sits at theta ~ -5e9,
    # 3.6e9 sqrt(2r) down; with rho = 1 the mean resistivity is 1, so the
    # root is the ratio-mode slope at gamma = R_load A_c / (rho L) = 50
    spec = unit_spec(alpha0=1e-8)
    prob = tg.LoadResistanceProblem(spec=spec, R_load=50.0)
    res = tg.enumerate_solutions(prob)
    assert len(res) == 1
    root = res.roots[0]
    assert root.theta == pytest.approx(tg.matched_initial_slope(spec, 50.0),
                                       rel=1e-12, abs=0)
    assert root.gamma_equiv == pytest.approx(50.0, rel=1e-12)
    assert not root.tangency
    assert abs(root.solution.T[-1] - spec.T_c) <= 1e-12 * spec.T_c


@pytest.mark.parametrize("alpha0", [1e-3, 1e-5, 1e-7, 1e-8, 1e-10, 1e-12])
def test_unit_leg_at_tiny_alpha0_matches_the_exact_parabola(alpha0):
    # theta* = c/2 - 1/c with c = alpha0/2 lies up to 1.4e12 sqrt(2r) below
    # 0; the quadrature in the drop s = theta - w does not cancel there
    spec = unit_spec(alpha0=alpha0)
    sol = tg.solve_ratio_mode(spec, 1.0)
    c = 0.5 * alpha0  # = |J| = y_c on this leg (rho = kappa = 1, gamma = 1)
    assert abs(sol.y_c - c) <= 1e-12 * c
    rep = tg.verify_solution(sol, spec)
    assert rep.nonlocal_residual <= 1e-12 * abs(sol.J)
    T_exact = spec.T_h + (0.5 * c * c - 1.0) * sol.x - 0.5 * (c * sol.x) ** 2
    assert np.max(np.abs(sol.T - T_exact)) <= 1e-12 * spec.T_h


def test_ratio_mode_where_rho_kappa_stalls_above_T_h():
    # kappa = 3 - T turns negative at 3 K, above T_h = 2.5: W stops growing
    # there, which caps the grid, while theta* = -4.8125 never leaves [T_c, T_h]
    pair = tg.MaterialPair(kappa=tg.linear(a=-1.0, b=3.0), rho=tg.constant(1.0),
                           alpha0=0.5)
    spec = tg.GeneratorSpec(pair=pair, T_h=2.5, T_c=1.0)
    sol = tg.solve_ratio_mode(spec, 1.0)
    assert sol.theta == pytest.approx(-4.8125, rel=1e-14)
    assert abs(sol.eta_numeric - tg.efficiency(spec, 1.0)) <= TOL_ETA
    q = tg.HittingTimeQuadrature(spec)
    assert spec.T_h <= q._table.T[-1] < 3.0
    # W(3) - W(T_h) = 1/8, so theta^2 / 2 within the cap is served ...
    assert q.y_c(0.45) > 0
    grid = q._table.T
    # ... and a theta that needs W beyond it raises, leaving the grid as it was
    with pytest.raises(tg.NumericalBlowup, match="stops growing at T=3"):
        q.y_c(1.0)
    assert q._table.T is grid
