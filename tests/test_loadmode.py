"""Fixed-load-resistance constraint H(theta) and root enumeration."""

import gc
import math
import weakref

import numpy as np
import pytest

import tegsolve as tg
from tegsolve import loadmode
from tegsolve.errors import DegenerateError, DomainError, InvalidMaterial, ZeroVoltage

import oracles
from helpers import (random_spec, three_solution_problem, two_solution_problem,
                     unit_spec)


ALPHA_3 = (-1.5 * math.sqrt(3) + 2.5 * math.sqrt(19)
           + 4.0 / math.sqrt(3) * math.atan(3.0))


# ---------------------------------------------------------------------------
# H(theta)
# ---------------------------------------------------------------------------

def test_H_worked_value_at_sqrt3_over_2():
    prob = three_solution_problem()
    th1 = math.sqrt(3.0) / 2.0
    # closed constant: -(3/2) sqrt(3) + (5/2) sqrt(19) + (4/sqrt 3) arctan 3
    assert ALPHA_3 == pytest.approx(11.18, abs=5e-3)
    assert tg.H_of_theta(prob, th1) == pytest.approx(ALPHA_3, rel=1e-9)
    assert oracles.H_of_theta_ivp(prob, th1) == pytest.approx(ALPHA_3, rel=1e-7)
    assert oracles.clamped_H(2.0, 48.0, 1.0, 8.0, th1) == pytest.approx(ALPHA_3, rel=1e-14)


def test_H_reduces_to_shooting_function_without_load():
    prob = tg.LoadResistanceProblem(spec=unit_spec(), R_load=0.0)
    for th in (-2.0, 0.0, 1.3):
        assert tg.H_of_theta(prob, th) == pytest.approx(
            tg.shooting_function(prob.spec, th), rel=1e-14)


def test_H_vanishes_at_very_negative_theta():
    prob = three_solution_problem()
    assert 0.0 < tg.H_of_theta(prob, -1e3) < 2e-2


def test_clamped_closed_forms_cross_check():
    prob = three_solution_problem()
    q = tg.HittingTimeQuadrature(prob.spec)
    for th in (-2.0, -0.4, 0.0, 0.5, 0.866, 1.5, 3.0):
        exact = oracles.clamped_hitting_time(2.0, 48.0, 1.0, th)
        assert q.y_c(th) == pytest.approx(exact, rel=1e-10)
        assert oracles.integrate_ivp(prob.spec, th, tol_ode=1e-12).y_c == pytest.approx(
            exact, rel=1e-9)


# ---------------------------------------------------------------------------
# enumeration: the worked three- and two-solution setups
# ---------------------------------------------------------------------------

def test_three_solution_enumeration():
    prob = three_solution_problem()
    res = tg.enumerate_solutions(prob)
    assert len(res) == 3
    thetas = [r.theta for r in res.roots]
    assert thetas == sorted(thetas)
    assert thetas[0] == pytest.approx(0.402, abs=1e-3)
    assert thetas[1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-8)
    assert thetas[2] == pytest.approx(1.483, abs=1e-3)
    Rs = [r.R_total for r in res.roots]
    for got, quoted in zip(Rs, (10.24, 10.99, 12.41)):
        assert got == pytest.approx(quoted, abs=0.01)
    # R[T_i] = alpha0 / y_c,i on this instance (V = alpha0, A_c = L = 1)
    for r in res.roots:
        assert r.R_total == pytest.approx(ALPHA_3 / r.y_c, rel=1e-9)
    # distinct effective load ratios
    gammas = [r.gamma_equiv for r in res.roots]
    assert len({round(g, 6) for g in gammas}) == 3
    assert not any(r.tangency for r in res.roots)


def test_three_solution_roots_satisfy_full_system():
    prob = three_solution_problem()
    res = tg.enumerate_solutions(prob)
    for root in res.roots:
        sol = root.solution
        assert abs(tg.H_of_theta(prob, root.theta) - ALPHA_3) <= 1e-9
        # the rho kink inside the profile makes the second-difference defect
        # O(h * J^2 * M * |T_x|) in the kink cell (grid-phase dependent);
        # elsewhere it follows the h^2 K'''' / 12 truncation model (~5e-4 here)
        K = prob.spec.K(sol.T)
        h = sol.x[1] - sol.x[0]
        second = (K[:-2] - 2.0 * K[1:-1] + K[2:]) / (h * h)
        rho = np.asarray(prob.spec.pair.rho.value(np.maximum(sol.T, 1.0)))
        defect = np.abs(second + rho[1:-1] * sol.J ** 2)
        gap = sol.T - 2.0  # T_pivot = T_h = 2 on this instance
        near_kink = np.zeros(len(sol.T), dtype=bool)
        for i in np.where(gap[:-1] * gap[1:] <= 0)[0]:
            near_kink[max(0, i - 3):i + 4] = True
        assert np.max(defect[~near_kink[1:-1]]) <= 2e-3
        assert abs(sol.T[-1] - prob.spec.T_c) <= 1e-8
        assert abs(sol.J - prob.spec.V / (sol.R_total * prob.spec.A_c)) <= 1e-9
        # resistance decomposition: |R_int + R_load - V/(J A_c)| <= TOL_ROOT
        R_int = sol.R_total - prob.R_load
        assert abs(R_int + prob.R_load
                   - prob.spec.V / (sol.J * prob.spec.A_c)) <= 1e-9


def test_three_solution_profiles_match_closed_form():
    prob = three_solution_problem()
    res = tg.enumerate_solutions(prob)
    for root in res.roots:
        sol = root.solution
        exact_u = oracles.clamped_profile_u(2.0, 2.0, 48.0, root.theta,
                                            sol.x * root.y_c)
        assert np.max(np.abs(sol.T - exact_u)) <= 1e-6  # kappa = 1: T = u


def test_two_solution_enumeration_flags_tangency():
    prob, th_stationary = two_solution_problem()
    res = tg.enumerate_solutions(prob)
    assert len(res) == 2
    simple, tangent = res.roots
    assert simple.theta == pytest.approx(0.357, abs=1e-3)
    assert not simple.tangency
    # test_golden pins the tangency to the exact stationary point
    assert tangent.theta == pytest.approx(th_stationary, abs=1e-4)
    assert tangent.theta == pytest.approx(1.189, abs=1e-3)
    assert tangent.tangency
    assert simple.R_total == pytest.approx(10.18, abs=0.01)
    assert tangent.R_total == pytest.approx(11.69, abs=0.01)


DIP_DEPTH = 1e-8  # 1% of TOL_TANGENCY at |V| > 1


def _dipping_two_solution_problem():
    """two_solution_problem with alpha0, hence |V|, raised by DIP_DEPTH: the
    exact H dips DIP_DEPTH below |V| at its stationary point, over ~3e-4 in
    theta."""
    prob, th_stationary = two_solution_problem()
    spec, pair = prob.spec, prob.spec.pair
    pair = tg.MaterialPair(kappa=pair.kappa, rho=pair.rho,
                           alpha0=pair.alpha0 + DIP_DEPTH / spec.delta_T)
    spec = tg.GeneratorSpec(pair=pair, T_h=spec.T_h, T_c=spec.T_c, L=spec.L,
                            A_c=spec.A_c)
    return tg.LoadResistanceProblem(spec=spec, R_load=prob.R_load), th_stationary


@pytest.mark.parametrize("scan_samples", [2109, 2269, 2923])
def test_crossing_pair_at_the_tangency_is_one_flagged_root(scan_samples):
    # at these resolutions a grid node falls where the exact H lies more
    # than DIP_DEPTH / 2 below |V|, so the scan sees two sign changes at the
    # stationary point; the dip is within the tangency tolerance, and the
    # tangency owns both
    prob, th_stationary = _dipping_two_solution_problem()
    V = abs(prob.spec.V)
    assert V - oracles.clamped_H(2.0, 48.0, 1.0, 8.0, th_stationary) == pytest.approx(
        DIP_DEPTH, rel=1e-6)
    res = tg.enumerate_solutions(prob, scan_samples=scan_samples)
    grid = res.scan_diagnostics.theta_grid
    near = grid[np.abs(grid - th_stationary) < 1e-3]
    assert min(oracles.clamped_H(2.0, 48.0, 1.0, 8.0, th) - V for th in near) < -0.5 * DIP_DEPTH
    assert [r.tangency for r in res.roots] == [False, True]
    assert res.roots[1].theta == pytest.approx(th_stationary, rel=5e-9)
    d = res.scan_diagnostics
    assert d.notes == ()
    assert d.merged_roots == 2


@pytest.mark.parametrize("scan_samples", [11, 14, 33, 100])
def test_simple_root_beside_a_grid_extremum_is_not_a_tangency(scan_samples):
    # on these grids a grid extremum of H sits beside a lone crossing (its
    # neighbours on opposite sides of the level) or between the two
    # crossings of a dip far deeper than TOL_TANGENCY; at 11 and 14 samples
    # both crossings of that dip lie inside the extremum's cell pair, so the
    # grid sees no sign change there.  g^2 vanishes in the bracket in every
    # case, so a g^2 refinement lands on a crossing, but the roots are simple
    res = tg.enumerate_solutions(three_solution_problem(), scan_samples=scan_samples)
    assert [r.tangency for r in res.roots] == [False, False, False]
    for got, want in zip(res.roots, (0.4024794362, math.sqrt(3.0) / 2.0, 1.4827090416)):
        assert got.theta == pytest.approx(want, abs=1e-9)
        assert got.H_residual <= tg.loadmode.TOL_ROOT


def _scaled(prob, lam):
    """prob with rho and R_load times lam^2 and alpha0 times lam: then
    H(lam theta) = lam H(theta), so the roots are lam times the original."""
    spec, rho = prob.spec, prob.spec.pair.rho
    pair = tg.MaterialPair(
        kappa=spec.pair.kappa,
        rho=tg.clamped_linear(M=rho.M * lam ** 2, T_pivot=rho.T_pivot,
                              v_pivot=rho.v_pivot * lam ** 2),
        alpha0=spec.pair.alpha0 * lam)
    spec = tg.GeneratorSpec(pair=pair, T_h=spec.T_h, T_c=spec.T_c, L=spec.L,
                            A_c=spec.A_c)
    return tg.LoadResistanceProblem(spec=spec, R_load=prob.R_load * lam ** 2)


@pytest.mark.parametrize("lam", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("leg", ["three", "two"])
def test_roots_scale_with_the_leg(leg, lam):
    # the root tolerances scale with min(1, |V|): absolute ones made both
    # legs report two tangency roots at lam = 1e-5 and 1e-7
    prob = three_solution_problem() if leg == "three" else two_solution_problem()[0]
    base = tg.enumerate_solutions(prob)
    res = tg.enumerate_solutions(_scaled(prob, lam))
    assert [r.tangency for r in res.roots] == [r.tangency for r in base.roots]
    for got, want in zip(res.roots, base.roots):
        assert got.theta / lam == pytest.approx(want.theta, rel=5e-9)


@pytest.mark.parametrize("scan_samples", [9, *range(11, 200, 6)])
def test_bundled_legs_at_coarse_resolutions(scan_samples):
    # at 9 samples the tangency's cell pair also holds the maximum of H, so
    # the centred difference does not turn from - to + between its
    # neighbours and only the rescan of the pair finds the stationary point
    res = tg.enumerate_solutions(three_solution_problem(), scan_samples=scan_samples)
    assert [r.tangency for r in res.roots] == [False, False, False]
    prob, th_stationary = two_solution_problem()
    res = tg.enumerate_solutions(prob, scan_samples=scan_samples)
    assert [r.tangency for r in res.roots] == [False, True]
    assert res.roots[1].theta == pytest.approx(th_stationary, rel=5e-9)


def test_constant_rho_single_root():
    spec = unit_spec()
    prob = tg.LoadResistanceProblem(spec=spec, R_load=0.05)
    res = tg.enumerate_solutions(prob)
    assert len(res) == 1
    # also with a large load: H is strictly increasing for constant rho
    res = tg.enumerate_solutions(tg.LoadResistanceProblem(spec=spec, R_load=40.0))
    assert len(res) == 1


def test_ratio_mode_solution_recovered_among_roots():
    spec = unit_spec()
    gamma = 1.0
    ratio_sol = tg.solve_ratio_mode(spec, gamma)
    R_int = ratio_sol.R_total / (1.0 + gamma)
    prob = tg.LoadResistanceProblem(spec=spec, R_load=gamma * R_int)
    res = tg.enumerate_solutions(prob)
    thetas = [r.theta for r in res.roots]
    target = tg.matched_initial_slope(spec, gamma)
    assert any(abs(t - target) < 1e-8 for t in thetas)
    match = min(res.roots, key=lambda r: abs(r.theta - target))
    assert match.gamma_equiv == pytest.approx(gamma, rel=1e-8)


def test_scan_diagnostics_recorded():
    res = tg.enumerate_solutions(three_solution_problem())
    d = res.scan_diagnostics
    assert d.n_samples == 2048
    assert d.theta_grid.shape == (2048,)
    assert d.H_values.shape == (2048,)
    # rho_min = 2 on [T_c, T_h] and S_load = 8: theta_lo is the matched slope
    # with I = |V| / (2 (1 + 8 / 2)), and r = 2
    c = ALPHA_3 / 10.0
    assert d.theta_lo == pytest.approx(0.5 * c - 2.0 / c, rel=1e-14)
    assert d.theta_hi == 0.5 * ALPHA_3
    assert d.n_sign_changes == 3


def test_scan_window_brackets_the_level_on_random_legs():
    # H <= |V|/2 at theta_lo and H >= I(|V|/2) > |V| at theta_hi; a
    # two-sample scan reads H at exactly those two ends
    rng = np.random.default_rng(100)
    for idx in range(49):
        spec = random_spec(rng, idx)
        R_h = spec.pair.rho.value(spec.T_h) * spec.L / spec.A_c
        for load in (0.1, 1.0, 10.0):
            prob = tg.LoadResistanceProblem(spec=spec, R_load=load * R_h)
            res = tg.enumerate_solutions(prob, scan_samples=2)
            H_lo, H_hi = res.scan_diagnostics.H_values
            V = abs(spec.V)
            assert H_lo <= 0.5 * V * (1.0 + 1e-12), (idx, load)
            assert H_hi > V, (idx, load)
            assert len(res) == 1, (idx, load)


def test_scan_samples_below_two_rejected():
    for n in (1, 0, -3):
        with pytest.raises(DomainError, match="scan_samples"):
            tg.enumerate_solutions(three_solution_problem(), scan_samples=n)


def test_negative_R_load_rejected():
    for R_load in (-1.0, math.inf, math.nan):  # and a load that is not finite
        with pytest.raises(DomainError, match="R_load"):
            tg.LoadResistanceProblem(spec=unit_spec(), R_load=R_load)


@pytest.mark.parametrize("call, error", [
    (lambda: tg.HittingTimeQuadrature(unit_spec(T_h=1.0)), DegenerateError),
    (lambda: tg.enumerate_solutions(tg.LoadResistanceProblem(unit_spec(alpha0=0.0), 1.0)),
     ZeroVoltage),
    (lambda: tg.H_of_theta(tg.LoadResistanceProblem(unit_spec(alpha0=0.0), 1.0), 0.5),
     ZeroVoltage),
], ids=["quadrature_at_zero_gap", "enumerate_at_zero_alpha0", "H_at_zero_alpha0"])
def test_a_leg_without_voltage_raises_typed(call, error):
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# the constructive nonuniqueness setup
# ---------------------------------------------------------------------------

def test_construct_nonunique_example_worked_numbers():
    built = tg.construct_nonunique_example(tg.constant(1.0), T_h=2.0, T_c=1.0,
                                           rho_h=2.0)
    # theta1^2 = 2 rho_h du / 3 = 4/3 and M = 16 rho_h^2 / theta1^2 = 48
    assert built.theta1 == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
    assert built.problem.spec.pair.rho.M == pytest.approx(48.0, rel=1e-13)
    assert built.problem.S_load / 2.0 == pytest.approx(4.0) and 4.0 > 51.0 / 13.0
    assert built.H_prime_theta1 == pytest.approx(1.5 - (13.0 / 34.0) * 4.0,
                                                 rel=1e-14)
    assert built.H_prime_theta1 == pytest.approx(-0.0294117647, abs=1e-9)
    assert built.H_prime_theta1 < 0
    # |V| = H(theta1) by construction, so theta1 is a root
    assert tg.H_of_theta(built.problem, built.theta1) == pytest.approx(
        abs(built.problem.spec.V), rel=1e-10)


def test_construct_nonunique_example_enumerates_multiple_roots():
    built = tg.construct_nonunique_example(tg.constant(1.0), T_h=2.0, T_c=1.0,
                                           rho_h=2.0)
    res = tg.enumerate_solutions(built.problem)
    assert len(res) >= 2
    assert any(abs(r.theta - built.theta1) < 1e-6 for r in res.roots)


def test_construct_nonunique_example_scaled_kappa():
    built = tg.construct_nonunique_example(tg.constant(2.5), T_h=3.0, T_c=1.5,
                                           rho_h=1.2, load_over_rho=5.0)
    res = tg.enumerate_solutions(built.problem)
    assert len(res) >= 2
    assert any(abs(r.theta - built.theta1) < 1e-5 for r in res.roots)


def test_construct_nonunique_example_validation():
    with pytest.raises(InvalidMaterial):
        tg.construct_nonunique_example(tg.linear(1.0, 0.0), T_h=2.0, T_c=1.0,
                                       rho_h=2.0)
    with pytest.raises(InvalidMaterial):
        tg.construct_nonunique_example(tg.constant(1.0), T_h=2.0, T_c=1.0,
                                       rho_h=2.0, load_over_rho=3.0)
    with pytest.raises(InvalidMaterial, match="rho_h > 0"):
        tg.construct_nonunique_example(tg.constant(1.0), T_h=2.0, T_c=1.0, rho_h=0.0)
    with pytest.raises(DegenerateError, match="T_h > T_c"):
        tg.construct_nonunique_example(tg.constant(1.0), T_h=1.0, T_c=1.0, rho_h=2.0)


def test_a_root_left_off_the_level_is_noted(monkeypatch):
    # monkeypatched: a Brent search that returns its bracket's lower end
    # leaves each simple root on a scan point, where |H - |V|| is far above
    # TOL_ROOT, and the scan records that instead of passing it off as found
    monkeypatch.setattr(loadmode, "brentq", lambda f, a, b, **kw: a)
    res = tg.enumerate_solutions(three_solution_problem(), scan_samples=256, n_out=2)
    grid = res.scan_diagnostics.theta_grid
    notes = res.scan_diagnostics.notes
    assert len(res) == len(notes) == 3
    for root, note in zip(res.roots, notes):
        assert root.theta in grid and not root.tangency
        assert root.H_residual > loadmode.TOL_ROOT
        assert note.startswith(f"root at theta={root.theta:.6g} stuck at residual")


def test_a_tangency_whose_slope_never_turns_takes_the_least_sample(monkeypatch):
    # monkeypatched: the centred-difference slope reads +1 everywhere, so no
    # bracket turns from - to + and, after four rescans, the tangency is the
    # least of the last 17 samples, a 2 / 8^4 cell bracket around the minimum
    prob, th1 = two_solution_problem()
    want = tg.enumerate_solutions(prob, n_out=2)
    monkeypatch.setattr(loadmode, "cache", lambda f: lambda t: 1.0)
    got = tg.enumerate_solutions(prob, n_out=2)
    cell = got.scan_diagnostics.theta_grid[1] - got.scan_diagnostics.theta_grid[0]
    assert [r.tangency for r in got.roots] == [r.tangency for r in want.roots]
    (was,), (now,) = ([r for r in s.roots if r.tangency] for s in (want, got))
    assert now.theta != was.theta
    assert abs(now.theta - th1) <= 2.0 * cell / 8 ** 4
    assert now.H_residual <= loadmode.TOL_TANGENCY


def test_enumeration_leaves_no_reference_cycle_to_the_problem():
    # a reference cycle through the root finders' closures over the problem
    # would keep the problem and its W^-1 grid alive until a gc pass
    prob = three_solution_problem()
    alive = weakref.ref(prob._quadrature)
    gc.disable()
    try:
        assert len(tg.enumerate_solutions(prob).roots) == 3
        del prob
        assert alive() is None
    finally:
        gc.enable()
