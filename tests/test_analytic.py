"""Closed-form figure of merit, efficiency, shooting function and flux."""

import math

import numpy as np
import pytest

import tegsolve as tg
from tegsolve.errors import (DegenerateError, DomainError, NumericalBlowup, ZeroSeebeck,
                             ZeroVoltage)

from helpers import random_spec, unit_spec


def test_figure_of_merit_unit():
    assert tg.figure_of_merit(unit_spec()) == pytest.approx(1.0, abs=1e-14)


def test_figure_of_merit_linear_resistivity():
    # rho = rho1 * T / T_m with constant kappa: z = alpha0^2 dT / (rho1 kappa0)
    T_h, T_c = 2.0, 1.0
    T_m = 0.5 * (T_h + T_c)
    rho1, kappa0, alpha0 = 0.8, 1.4, 0.9
    pair = tg.MaterialPair(kappa=tg.constant(kappa0),
                           rho=tg.linear(rho1 / T_m, 0.0), alpha0=alpha0)
    spec = tg.GeneratorSpec(pair=pair, T_h=T_h, T_c=T_c)
    expect = alpha0 ** 2 * (T_h - T_c) / (rho1 * kappa0)
    assert tg.figure_of_merit(spec) == pytest.approx(expect, rel=1e-13)


def test_figure_of_merit_reciprocal_kappa():
    T_h, T_c = 2.0, 1.0
    k1, rho0, alpha0 = 1.9, 0.7, 1.2
    pair = tg.MaterialPair(kappa=tg.reciprocal(k1), rho=tg.constant(rho0),
                           alpha0=alpha0)
    spec = tg.GeneratorSpec(pair=pair, T_h=T_h, T_c=T_c)
    expect = alpha0 ** 2 * (T_h - T_c) / (rho0 * k1 * math.log(T_h / T_c))
    assert tg.figure_of_merit(spec) == pytest.approx(expect, rel=1e-13)


def test_z_invariant_under_kappa_rho_interchange():
    a = tg.GeneratorSpec(
        pair=tg.MaterialPair(tg.linear(0.5, 0.1), tg.constant(0.9), 1.1),
        T_h=2.4, T_c=1.2)
    b = tg.GeneratorSpec(
        pair=tg.MaterialPair(tg.constant(0.9), tg.linear(0.5, 0.1), 1.1),
        T_h=2.4, T_c=1.2)
    assert tg.figure_of_merit(a) == pytest.approx(tg.figure_of_merit(b), rel=1e-13)


def test_figure_of_merit_errors():
    with pytest.raises(DegenerateError):
        tg.figure_of_merit(unit_spec(T_h=1.0, T_c=1.0))
    with pytest.raises(ZeroSeebeck):
        tg.figure_of_merit(unit_spec(alpha0=0.0))


def test_efficiency_worked_values():
    spec = unit_spec()
    assert tg.efficiency(spec, 0.0) == 0.0
    assert tg.efficiency(spec, 1.0) == pytest.approx(
        0.5 * 1.0 / (2.0 + 4.0 / 2.0 - 0.25), rel=1e-14)
    eta_max, gamma_opt = tg.max_efficiency(spec)
    assert tg.efficiency(spec, gamma_opt) == pytest.approx(eta_max, rel=1e-12)


def test_max_efficiency_worked_values():
    spec = unit_spec()
    eta_max, gamma_opt = tg.max_efficiency(spec)
    s = math.sqrt(2.5)
    assert gamma_opt == pytest.approx(s, rel=1e-14)
    assert eta_max == pytest.approx(0.5 * (s - 1.0) / (s + 0.5), rel=1e-14)
    assert gamma_opt >= 1.0


def test_max_efficiency_vanishes_with_z():
    spec = unit_spec(alpha0=1e-6)
    eta_max, _ = tg.max_efficiency(spec)
    assert 0 < eta_max < 1e-11


def test_max_efficiency_monotone_in_z():
    etas = [tg.max_efficiency(unit_spec(alpha0=a))[0]
            for a in (0.3, 0.6, 1.0, 1.9, 3.4)]
    assert all(e1 < e2 for e1, e2 in zip(etas, etas[1:]))


def test_efficiency_grid_argmax_near_gamma_opt():
    rng = np.random.default_rng(5)
    for idx in range(10):
        spec = random_spec(rng, idx)
        eta_max, gamma_opt = tg.max_efficiency(spec)
        gammas = np.linspace(0.0, 2.5 * gamma_opt, 10_000)
        etas = np.array([tg.efficiency(spec, g) for g in gammas])
        step = gammas[1] - gammas[0]
        assert abs(gammas[int(np.argmax(etas))] - gamma_opt) <= step
        assert etas.max() <= eta_max + 1e-15


def test_carnot_bound():
    rng = np.random.default_rng(9)
    for idx in range(8):
        spec = random_spec(rng, idx)
        carnot = spec.delta_T / spec.T_h
        for g in np.linspace(0.0, 50.0, 101):
            assert tg.efficiency(spec, g) < carnot


def test_shooting_function_worked_values():
    spec = unit_spec()  # r = 1
    assert tg.shooting_function(spec, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert tg.shooting_function(spec, 1.5) == pytest.approx(
        1.5 + math.sqrt(2.25 + 2.0), rel=1e-15)
    assert tg.shooting_function(spec, -1.5) == pytest.approx(
        tg.shooting_function(spec, 1.5) - 3.0, rel=1e-14)


def test_shooting_function_without_a_temperature_gap_raises():
    with pytest.raises(DegenerateError, match="T_h > T_c"):
        tg.shooting_function(unit_spec(T_h=1.0, T_c=1.0), 0.5)


def test_shooting_function_symmetry_and_monotonicity():
    rng = np.random.default_rng(3)
    for idx in range(6):
        spec = random_spec(rng, idx)
        thetas = np.sort(rng.uniform(-5, 5, size=40))
        vals = [tg.shooting_function(spec, t) for t in thetas]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)
        for t in rng.uniform(0, 5, size=25):
            lhs = tg.shooting_function(spec, t)
            rhs = tg.shooting_function(spec, -t) + 2.0 * t
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, lhs))


@pytest.mark.parametrize("k", [1e3, 1e6, 1e9])
def test_shooting_function_product_identity_far_from_zero(k):
    # I(theta) I(-theta) = 2r; theta + sqrt(theta^2 + 2r) loses every digit
    # once theta^2 >> 2r / eps, the form 2r / (hypot - theta) loses none
    rng = np.random.default_rng(3)
    for idx in range(7):
        spec = random_spec(rng, idx)
        theta = k * math.sqrt(2.0 * spec.rk)
        small = tg.shooting_function(spec, -theta)
        assert 0.0 < small < tg.shooting_function(spec, -0.5 * theta)
        product = tg.shooting_function(spec, theta) * small
        assert product == pytest.approx(2.0 * spec.rk, rel=4e-16, abs=0)


def test_shooting_function_limits():
    spec = unit_spec()
    assert tg.shooting_function(spec, -1e3 * math.sqrt(2.0)) < 1e-3
    assert tg.shooting_function(spec, 1e6) > 1e6


def test_matched_slope_worked_values():
    spec = unit_spec()  # r = 1, |V| = 1
    th = tg.matched_initial_slope(spec, 0.0)
    assert th == pytest.approx(-0.5, abs=1e-15)
    assert tg.shooting_function(spec, th) == pytest.approx(1.0, abs=1e-14)
    th = tg.matched_initial_slope(spec, 1.0)
    assert th == pytest.approx(-1.75, abs=1e-15)
    assert tg.shooting_function(spec, th) == pytest.approx(0.5, abs=1e-14)


def test_matched_slope_zero_at_symmetric_level():
    # |V|/(1+gamma) = sqrt(2r)  <->  theta* = 0
    spec = unit_spec(alpha0=math.sqrt(2.0))  # |V| = sqrt(2) = sqrt(2r)
    assert tg.matched_initial_slope(spec, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_matched_slope_inverts_shooting_function_random():
    rng = np.random.default_rng(17)
    count = 0
    while count < 100:
        spec = random_spec(rng, count)
        gamma = rng.uniform(0.0, 5.0)
        th = tg.matched_initial_slope(spec, gamma)
        c = abs(spec.V) / (1.0 + gamma)
        got = tg.shooting_function(spec, th)
        assert got == pytest.approx(c, rel=1e-12)
        count += 1


def test_matched_slope_zero_voltage():
    with pytest.raises(ZeroVoltage):
        tg.matched_initial_slope(unit_spec(T_h=1.0, T_c=1.0), 0.0)


def test_hot_side_flux_is_minus_theta_star():
    spec = unit_spec()
    assert tg.hot_side_relative_flux(spec, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert tg.hot_side_relative_flux(spec, 1.0) == pytest.approx(1.75, abs=1e-15)
    spec2 = unit_spec(alpha0=math.sqrt(2.0))
    assert tg.hot_side_relative_flux(spec2, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_hot_side_flux_reproduces_efficiency():
    # eta = (gamma/(1+gamma)) |V| / (flux + |alpha0| T_h)
    rng = np.random.default_rng(29)
    for idx in range(10):
        spec = random_spec(rng, idx)
        gamma = rng.uniform(0.0, 5.0)
        flux = tg.hot_side_relative_flux(spec, gamma)
        eta_from_flux = (gamma / (1.0 + gamma)) * abs(spec.V) / (
            flux + abs(spec.alpha0) * spec.T_h)
        assert eta_from_flux == pytest.approx(tg.efficiency(spec, gamma), rel=1e-12)


def test_decreasing_criterion_arithmetic():
    # z = 1, dT = 1, gamma = 0: 1 <= 2 -> decreasing
    assert tg.is_strictly_decreasing(unit_spec(alpha0=1.0), 0.0)
    # z = 3, dT = 1, gamma = 0: 3 > 2 -> not decreasing
    assert not tg.is_strictly_decreasing(unit_spec(alpha0=math.sqrt(3.0)), 0.0)


@pytest.mark.parametrize("call", [lambda spec: tg.is_strictly_decreasing(spec, 1.0),
                                  tg.sherman_relation],
                         ids=["is_strictly_decreasing", "sherman_relation"])
def test_profile_criteria_at_zero_voltage_raise(call):
    # alpha0 = 0 gives V = 0: no current, so neither criterion has a meaning
    with pytest.raises(ZeroVoltage):
        call(unit_spec(alpha0=0.0))


def test_decreasing_always_true_at_gamma_opt():
    rng = np.random.default_rng(41)
    for idx in range(12):
        spec = random_spec(rng, idx, z_T_m_band=(0.3, 40.0))
        _, gamma_opt = tg.max_efficiency(spec)
        assert tg.is_strictly_decreasing(spec, gamma_opt)


def test_sherman_relation_unit_and_degenerate_limit():
    lhs, rhs = tg.sherman_relation(unit_spec())
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # z -> 0 limit: both sides blow up together, ratio -> 1
    tiny = unit_spec(alpha0=1e-3)  # z = 1e-6
    lhs, rhs = tg.sherman_relation(tiny)
    assert lhs > 1e2
    assert lhs / rhs == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("alpha0", [1e-9, 1e-7, 1e-5])
def test_sherman_relation_small_eta_max(alpha0):
    # eta_max = z / 4 here, at or below the rounding of 1 - eta_max; the two
    # sides grow like 1 / alpha0 and still agree
    lhs, rhs = tg.sherman_relation(unit_spec(alpha0=alpha0))
    assert lhs == pytest.approx(2.0 / alpha0, rel=1e-6)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_sherman_relation_zero_eta_max_is_degenerate():
    spec = unit_spec(alpha0=1e-170)  # z underflows to 0, so eta_max is 0
    assert tg.max_efficiency(spec)[0] == 0.0
    with pytest.raises(DegenerateError):
        tg.sherman_relation(spec)


def test_sherman_relation_reciprocal_kappa():
    pair = tg.MaterialPair(kappa=tg.reciprocal(2.0), rho=tg.constant(0.5),
                           alpha0=0.9)
    spec = tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0)
    lhs, rhs = tg.sherman_relation(spec)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_spec_validation():
    with pytest.raises(DomainError):
        unit_spec(T_c=0.0)
    with pytest.raises(DomainError):
        unit_spec(T_h=1.0, T_c=2.0)
    with pytest.raises(DomainError):
        unit_spec(L=0.0)
    with pytest.raises(DomainError):
        tg.efficiency(unit_spec(), -0.5)



def test_spec_checks_its_range_once(monkeypatch):
    # r and u_h lie on [T_c, T_h], which the spec checked when it was built
    calls = []
    check = tg.MaterialPair.validate_range
    monkeypatch.setattr(tg.MaterialPair, "validate_range",
                        lambda pair, lo, hi: calls.append((lo, hi)) or check(pair, lo, hi))
    knots = [(1.0 + 0.25 * i, 1.0 + 0.1 * i * i) for i in range(9)]
    pair = tg.MaterialPair(tg.table(knots), tg.wiedemann_franz(Lo=2.0), 1.0)
    spec = tg.GeneratorSpec(pair=pair, T_h=2.5, T_c=1.5)
    assert spec.rk > 0 and spec.u_h > spec.T_c
    assert calls == [(1.5, 2.5)]
    spec.K(3.0)  # beyond T_h: checked on [T_h, 3]
    assert calls[1:] == [(2.5, 3.0)]


@pytest.mark.parametrize("field,value", [
    ("T_h", math.nan), ("T_h", math.inf), ("T_c", math.nan), ("L", math.inf),
    ("A_c", math.nan),
])
def test_spec_rejects_non_finite_inputs(field, value):
    with pytest.raises(DomainError):
        unit_spec(**{field: value})


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_closed_forms_reject_non_finite_gamma(gamma):
    spec = unit_spec()
    for fn in (tg.efficiency, tg.matched_initial_slope, tg.is_strictly_decreasing):
        with pytest.raises(DomainError):
            fn(spec, gamma)


@pytest.mark.parametrize("gamma", [1.4e154, 1e160, 1e300, np.float64(1e200)],
                         ids=["1.4e154", "1e160", "1e300", "numpy_1e200"])
def test_closed_forms_where_gamma_plus_one_squared_overflows(gamma):
    # eta's limit 0 and the criterion's limit True; a numpy gamma (as a
    # linspace of load ratios gives it) warns no overflow either
    spec = unit_spec()
    assert tg.efficiency(spec, gamma) == 0.0
    assert tg.is_strictly_decreasing(spec, gamma) is True
    assert tg.hot_side_relative_flux(spec, gamma) > 0


@pytest.mark.parametrize("alpha0", [1.4e154, -1e160, 1e300, 1.2e154])
def test_closed_forms_where_z_T_h_overflows(alpha0):
    # z = alpha0^2 (unit leg, T_h = 2): alpha0^2 overflows from 1.34e154, and
    # z T_h from 9.5e153
    spec = unit_spec(alpha0=alpha0)
    for fn in (tg.figure_of_merit, tg.max_efficiency, tg.performance_report,
               lambda s: tg.efficiency(s, 1.0),
               lambda s: tg.is_strictly_decreasing(s, 1.0)):
        with pytest.raises(NumericalBlowup, match="not a finite float"):
            fn(spec)


@pytest.mark.parametrize("alpha0", [1e-162, -1e-170, 5e-324])
def test_closed_forms_where_alpha0_squared_underflows(alpha0):
    # z = 0: eta has its limit 0 and the profile still decreases
    spec = unit_spec(alpha0=alpha0)
    assert tg.figure_of_merit(spec) == 0.0
    assert tg.efficiency(spec, 1.0) == 0.0
    assert tg.is_strictly_decreasing(spec, 1.0) is True
    assert tg.max_efficiency(spec) == (0.0, 1.0)


@pytest.mark.parametrize("alpha0, gamma", [(1e-170, 1e200), (1e-150, 1e160)])
def test_matched_slope_where_r_over_the_level_overflows(alpha0, gamma):
    # c = |V| / (1 + gamma) underflows to 0 (r / c divides by zero) or to a
    # subnormal (r / c is inf, theta* -inf)
    for fn in (tg.matched_initial_slope, tg.hot_side_relative_flux):
        with pytest.raises(NumericalBlowup, match="r / c overflows"):
            fn(unit_spec(alpha0=alpha0), gamma)


def test_closed_forms_keep_their_values():
    # the old formulas, with (gamma + 1)**2, where they return a value
    rng = np.random.default_rng(3)
    for idx in range(14):
        spec = random_spec(rng, idx)
        z, dT, T_h = tg.figure_of_merit(spec), spec.delta_T, spec.T_h
        assert z == spec.alpha0 ** 2 * dT / spec.rk
        for gamma in [0.0, *np.logspace(-3, 150, 40)]:
            old = (dT / T_h) * gamma / (gamma + 1.0 + (gamma + 1.0) ** 2 / (z * T_h)
                                        - 0.5 * dT / T_h)
            assert tg.efficiency(spec, gamma) == old, (idx, gamma)
            assert tg.is_strictly_decreasing(spec, gamma) == (
                z * dT <= 2.0 * (1.0 + gamma) ** 2)


def test_performance_report_fields():
    rep = tg.performance_report(unit_spec())
    assert rep.gamma == pytest.approx(rep.gamma_opt)
    assert rep.eta_of_gamma == pytest.approx(rep.eta_max, rel=1e-12)
    assert rep.eta_max >= rep.eta_of_gamma - 1e-15
    assert rep.decreasing
    d = rep.to_json()
    assert set(d) == {"z", "gamma", "eta_of_gamma", "eta_max", "gamma_opt",
                      "hot_flux_rel", "decreasing", "sherman_lhs",
                      "sherman_rhs", "V"}
