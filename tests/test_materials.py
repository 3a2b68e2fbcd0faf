"""Property models, the conductivity transform, and the coupling integral."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import tegsolve as tg
from tegsolve.errors import (
    DomainError,
    InvalidMaterial,
    NonPositiveValue,
)

from helpers import make_model, quad_K, random_spec


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_constant():
    assert tg.eval_property(tg.constant(1.0), 300.0) == 1.0


def test_eval_clamped_linear_worked_values():
    m = tg.clamped_linear(M=48.0, T_pivot=2.0, v_pivot=2.0)
    assert tg.eval_property(m, 1.5) == 2.0
    assert tg.eval_property(m, 2.5) == pytest.approx(26.0, abs=0)


def test_eval_reciprocal():
    assert tg.eval_property(tg.reciprocal(1.0), 2.0) == 0.5


def test_eval_below_domain_raises():
    m = tg.log_affine(c0=1.0, c1=1.0, T_ref=1.0)  # positive only above e^-1
    with pytest.raises(NonPositiveValue):
        tg.eval_property(m, 0.2)


_EVERY_FAMILY = (
    tg.constant(1.0), tg.linear(a=1.0, b=1.0), tg.reciprocal(1.0),
    tg.log_affine(1.0, 0.5, 0.8), tg.clamped_linear(M=1.0, T_pivot=2.0, v_pivot=1.0),
    tg.table([(1.0, 1.0), (2.0, 2.0)]),
    tg.MaterialPair(tg.wiedemann_franz(1.0), tg.constant(1.0), 1.0).kappa,  # bound
)


@pytest.mark.parametrize("model", _EVERY_FAMILY, ids=lambda m: m.family)
@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_eval_needs_finite_positive_T(model, T):
    with pytest.raises(DomainError):
        tg.eval_property(model, T)
    with pytest.raises(DomainError):
        tg.eval_property(model, np.array([1.5, T]))


@pytest.mark.parametrize("model,T", [
    (tg.linear(a=1e300, b=1.0), 1e300),    # a * T overflows
    (tg.reciprocal(1.0), 5e-324),          # 1 / subnormal overflows
], ids=["linear_overflow", "reciprocal_overflow"])
def test_eval_non_finite_value_raises(model, T):
    with pytest.raises(NonPositiveValue):
        tg.eval_property(model, T)


def test_eval_nonpositive_value_raises():
    m = tg.log_affine(c0=1.0, c1=-1.0, T_ref=1.0)  # goes negative above e
    with pytest.raises(NonPositiveValue):
        tg.eval_property(m, 5.0)


def test_eval_vectorized_matches_scalar():
    m = tg.table([(1.0, 2.0), (2.0, 3.0), (4.0, 1.5)])
    Ts = np.array([0.5, 1.5, 3.0, 5.0])
    vec = tg.eval_property(m, Ts)
    assert vec == pytest.approx([2.0, 2.5, 2.25, 1.5])
    for t, v in zip(Ts, vec):
        assert tg.eval_property(m, float(t)) == pytest.approx(v)


def test_invalid_materials_rejected():
    with pytest.raises(InvalidMaterial):
        tg.constant(0.0)
    with pytest.raises(InvalidMaterial):
        tg.reciprocal(-1.0)
    with pytest.raises(InvalidMaterial):
        tg.clamped_linear(M=1.0, T_pivot=1.0, v_pivot=0.0)
    with pytest.raises(InvalidMaterial):
        tg.table([(1.0, 1.0)])
    with pytest.raises(InvalidMaterial):
        tg.table([(1.0, 1.0), (1.0, 2.0)])
    with pytest.raises(InvalidMaterial):
        tg.table([(1.0, 1.0), (2.0, -1.0)])
    with pytest.raises(InvalidMaterial):
        tg.linear(a=-1.0, b=-1.0)



@pytest.mark.parametrize("build", [
    lambda: tg.constant(math.nan),
    lambda: tg.constant(math.inf),
    lambda: tg.table([(1.0, 1.0), (2.0, math.nan)]),
    lambda: tg.linear(a=math.nan, b=1.0),
    lambda: tg.log_affine(c0=1.0, c1=0.5, T_ref=math.inf),
    lambda: tg.MaterialPair(kappa=tg.constant(1.0), rho=tg.constant(1.0),
                            alpha0=math.nan),
], ids=["constant_nan", "constant_inf", "table_nan_value", "linear_nan",
        "log_affine_inf_T_ref", "alpha0_nan"])
def test_non_finite_material_parameters_rejected(build):
    with pytest.raises(InvalidMaterial):
        build()

def test_clamped_linear_nondecreasing_and_lipschitz():
    m = tg.clamped_linear(M=48.0, T_pivot=2.0, v_pivot=2.0)
    Ts = np.linspace(0.5, 4.0, 400)
    vals = np.asarray(m.value(Ts))
    assert np.all(np.diff(vals) >= 0)
    lip = np.max(np.abs(np.diff(vals) / np.diff(Ts)))
    assert lip <= 48.0 + 1e-9


def test_wiedemann_franz_binding():
    pair = tg.MaterialPair(kappa=tg.wiedemann_franz(2.4e-8),
                           rho=tg.constant(1e-5), alpha0=2e-4)
    assert pair.kappa.value(300.0) == pytest.approx(2.4e-8 * 300.0 / 1e-5)
    with pytest.raises(InvalidMaterial):
        tg.MaterialPair(kappa=tg.wiedemann_franz(1.0),
                        rho=tg.wiedemann_franz(1.0), alpha0=1.0)
    with pytest.raises(InvalidMaterial):
        tg.wiedemann_franz(1.0).value(300.0)


# ---------------------------------------------------------------------------
# the conductivity transform K
# ---------------------------------------------------------------------------

def _k_spec(kappa, T_h, T_c=1.0, rho=None):
    """A zero-voltage leg: its ratio-mode profile is T = K^{-1}(u), u affine."""
    pair = tg.MaterialPair(kappa=kappa, rho=rho or tg.constant(1.0), alpha0=0.0)
    return tg.GeneratorSpec(pair=pair, T_h=T_h, T_c=T_c)


def test_k_forward_worked_values():
    assert _k_spec(tg.constant(1.0), 2.0).K(2.0) == pytest.approx(2.0, abs=1e-14)
    # kappa(T) = T
    assert _k_spec(tg.linear(1.0, 0.0), 2.0).K(2.0) == pytest.approx(2.5, abs=1e-14)
    # kappa(T) = 1/T
    assert _k_spec(tg.reciprocal(1.0), 3.0).K(math.e) == pytest.approx(2.0, abs=1e-13)


def test_k_forward_below_base_raises():
    spec = _k_spec(tg.constant(1.0), 2.0)
    with pytest.raises(DomainError):
        spec.K(0.5)
    with pytest.raises(DomainError):
        spec.K(np.array([1.5, 0.5]))
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            spec.K(bad)


def test_k_forward_strictly_increasing():
    rng = np.random.default_rng(7)
    for fam in ("constant", "linear", "reciprocal", "table", "clamped_linear"):
        spec = _k_spec(make_model(rng, fam, 1.0, 3.0), 3.0)
        Ts = np.sort(rng.uniform(1.0, 6.0, size=30))
        Ks = spec.K(Ts)
        assert np.all(np.diff(Ks) > 0)


def test_k_inverse_worked_values():
    # K(T) = T: u = 3, 2.5, ..., 1 on five points
    sol = tg.solve_ratio_mode(_k_spec(tg.constant(1.0), 3.0), 0.0, n_out=4)
    assert sol.T[2] == pytest.approx(2.0, abs=1e-12)
    # K(T) = (T^2 + 1) / 2: u = 5, 4.5, ..., 1, and K^{-1}(2.5) = 2
    sol = tg.solve_ratio_mode(_k_spec(tg.linear(1.0, 0.0), 3.0), 0.0, n_out=8)
    assert sol.T[5] == pytest.approx(2.0, abs=1e-12)


def test_k_infinity_finite_for_decaying_kappa():
    # kappa = 1 - 0.5 T loses positivity at T = 2, so K stays below
    # K(2) = 1 + 1 - 0.25 (4 - 1) = 1.75 for every valid T
    spec = _k_spec(tg.linear(-0.5, 1.0), 1.99)
    Ts = np.array([1.0, 1.5, 1.9, 1.99])
    exact = 1.0 + (Ts - 1.0) - 0.25 * (Ts ** 2 - 1.0)
    assert np.all(np.abs(spec.K(Ts) - exact) <= 1e-14)
    assert np.all(spec.K(Ts) < 1.75)


def test_wiedemann_franz_transform_matches_quadrature():
    # kappa = 2 T / rho(T): K has no closed antiderivative
    pair = tg.MaterialPair(
        kappa=tg.wiedemann_franz(2.0),
        rho=tg.table([(1.0, 1.5), (2.0, 2.5), (3.0, 2.0)]),
        alpha0=0.0,
    )
    spec = tg.GeneratorSpec(pair=pair, T_h=4.0, T_c=1.0)
    Ts = np.array([1.0, 1.3, 2.0, 2.7, 4.0])
    for T, u in zip(Ts, spec.K(Ts)):
        ref = quad_K(spec, float(T))
        assert abs(u - ref) <= 1e-12 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# the coupling integral
# ---------------------------------------------------------------------------

def _quad_product(pair, lo, hi):
    pts = sorted({t for m in (pair.kappa, pair.rho) for t in m.kinks()
                  if lo < t < hi})
    val, _ = quad(lambda T: pair.kappa.value(T) * pair.rho.value(T),
                  lo, hi, epsabs=1e-14, epsrel=1e-12, points=pts or None,
                  limit=200)
    return val


def test_rk_integral_unit():
    pair = tg.MaterialPair(kappa=tg.constant(1.0), rho=tg.constant(1.0),
                           alpha0=1.0)
    assert tg.rho_kappa_integral(pair, 1.0, 2.0) == pytest.approx(1.0, abs=1e-14)


def test_rk_integral_reciprocal_kappa_log_form():
    rho0, k1, T_c, T_h = 0.7, 1.9, 1.0, 2.5
    pair = tg.MaterialPair(kappa=tg.reciprocal(k1), rho=tg.constant(rho0),
                           alpha0=1.0)
    expect = rho0 * k1 * math.log(T_h / T_c)
    assert tg.rho_kappa_integral(pair, T_c, T_h) == pytest.approx(expect, rel=1e-14)


def test_rk_integral_log_affine_times_reciprocal():
    rho0, rho1sq, k1, T_c, T_h = 0.9, 0.36, 1.3, 1.0, 2.0
    T_m = 0.5 * (T_c + T_h)
    pair = tg.MaterialPair(kappa=tg.reciprocal(k1),
                           rho=tg.log_affine(rho0, rho1sq, T_m), alpha0=1.0)
    expect = (rho0 * k1 * (1.0 + 0.5 * rho1sq * math.log(T_h * T_c / T_m ** 2))
              * math.log(T_h / T_c))
    got = tg.rho_kappa_integral(pair, T_c, T_h)
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(_quad_product(pair, T_c, T_h), rel=1e-10)


def test_rk_integral_wiedemann_franz_exact():
    pair = tg.MaterialPair(kappa=tg.wiedemann_franz(2.0),
                           rho=tg.table([(1.0, 1.0), (2.0, 3.0), (3.0, 2.0)]),
                           alpha0=1.0)
    assert tg.rho_kappa_integral(pair, 1.0, 3.0) == pytest.approx(
        0.5 * 2.0 * (9.0 - 1.0), rel=1e-14)


def test_rk_integral_additive_over_adjacent_intervals():
    rng = np.random.default_rng(23)
    for idx in range(8):
        spec = random_spec(rng, idx)
        pair, T_c, T_h = spec.pair, spec.T_c, spec.T_h
        mid = 0.5 * (T_c + T_h)
        whole = tg.rho_kappa_integral(pair, T_c, T_h)
        parts = (tg.rho_kappa_integral(pair, T_c, mid)
                 + tg.rho_kappa_integral(pair, mid, T_h))
        assert parts == pytest.approx(whole, rel=1e-10, abs=1e-13 * max(1, whole))


def test_rk_integral_closed_forms_match_quadrature():
    rng = np.random.default_rng(31)
    cases = [
        tg.MaterialPair(tg.constant(1.3), tg.linear(0.4, 0.2), 1.0),
        tg.MaterialPair(tg.linear(0.3, 0.5), tg.linear(0.2, 0.9), 1.0),
        tg.MaterialPair(tg.reciprocal(1.7), tg.linear(0.5, 0.1), 1.0),
        tg.MaterialPair(tg.reciprocal(1.7), tg.reciprocal(0.8), 1.0),
        tg.MaterialPair(tg.constant(0.9), tg.clamped_linear(5.0, 1.7, 1.0), 1.0),
        tg.MaterialPair(tg.constant(0.9),
                        tg.table([(0.8, 1.0), (1.5, 2.0), (2.5, 1.2)]), 1.0),
        tg.MaterialPair(tg.reciprocal(1.1), tg.log_affine(0.8, 0.5, 1.0), 1.0),
    ]
    for pair in cases:
        lo = rng.uniform(1.0, 1.3)
        hi = rng.uniform(1.9, 2.6)
        got = tg.rho_kappa_integral(pair, lo, hi)
        ref = _quad_product(pair, lo, hi)
        assert got == pytest.approx(ref, rel=1e-10)


def test_family_integrals_match_quadrature():
    rng = np.random.default_rng(47)
    models = [
        tg.constant(1.7),
        tg.linear(0.6, 0.4),
        tg.reciprocal(2.1),
        tg.log_affine(1.2, 0.7, 1.1),
        tg.clamped_linear(7.0, 1.8, 0.9),
        tg.table([(0.9, 1.1), (1.4, 2.0), (2.2, 0.8), (3.0, 1.3)]),
    ]
    for m in models:
        lo = rng.uniform(1.0, 1.4)
        hi = rng.uniform(1.9, 2.8)
        pts = [t for t in m.kinks() if lo < t < hi]
        ref, _ = quad(m.value, lo, hi, epsabs=1e-14, epsrel=1e-12,
                      points=pts or None, limit=200)
        spec = _k_spec(m, hi, T_c=lo)
        assert spec.u_h - lo == pytest.approx(ref, rel=1e-10)
        # rho = 1 makes the coupling integral the integral of kappa
        assert tg.rho_kappa_integral(spec.pair, lo, hi) == pytest.approx(ref, rel=1e-10)


def test_rk_integral_reversed_bounds_raise():
    pair = tg.MaterialPair(tg.constant(1.0), tg.constant(1.0), 1.0)
    with pytest.raises(DomainError):
        tg.rho_kappa_integral(pair, 2.0, 1.0)


@pytest.mark.parametrize("lo,hi", [(1.0, math.inf), (1.0, math.nan),
                                   (math.nan, 2.0), (math.inf, math.inf)])
def test_rk_integral_non_finite_bounds_raise(lo, hi):
    pair = tg.MaterialPair(tg.constant(1.0), tg.constant(1.0), 1.0)
    with pytest.raises(DomainError):
        tg.rho_kappa_integral(pair, lo, hi)


@pytest.mark.parametrize("lo,hi", [(math.nan, 2.0), (1.0, math.nan), (0.0, 2.0),
                                   (2.0, 1.0), (1.0, math.inf)])
def test_validate_range_rejects_bad_ranges(lo, hi):
    pair = tg.MaterialPair(tg.constant(1.0), tg.constant(1.0), 1.0)
    with pytest.raises(DomainError):
        pair.validate_range(lo, hi)


# kappa = 3 - T is positive on [1, 2] and changes sign at T = 3
_SIGN_CHANGE = tg.MaterialPair(tg.linear(a=-1.0, b=3.0), tg.constant(1.0), 1.0)


def test_rk_integral_over_a_sign_change_raises():
    assert tg.rho_kappa_integral(_SIGN_CHANGE, 1.0, 2.0) == pytest.approx(1.5, rel=1e-14)
    with pytest.raises(NonPositiveValue):
        tg.rho_kappa_integral(_SIGN_CHANGE, 1.0, 5.0)


def test_K_beyond_a_sign_change_raises():
    spec = tg.GeneratorSpec(pair=_SIGN_CHANGE, T_h=2.0, T_c=1.0)
    assert spec.K(2.0) == pytest.approx(2.5, rel=1e-14)
    with pytest.raises(NonPositiveValue):
        spec.K(5.0)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def test_material_json_roundtrip():
    pair = tg.MaterialPair(
        kappa=tg.reciprocal(1.3),
        rho=tg.table([(1.0, 2.0), (2.0, 2.5), (3.0, 1.0)]),
        alpha0=-0.7,
    )
    d = pair.to_json()
    pair2 = tg.pair_from_json(d)
    assert pair2.to_json() == d
    Ts = np.linspace(1.0, 3.0, 11)
    assert np.allclose(pair2.rho.value(Ts), pair.rho.value(Ts))


@pytest.mark.parametrize("build,key", [
    (lambda: tg.pair_from_json({"kappa": {"family": "constant", "c": 1.0},
                                "rho": {"family": "constant", "c": 1.0},
                                "alpha_0": 1.0}), "alpha_0"),
    (lambda: tg.model_from_json({"family": "linear", "a": 1.0, "b": 1.0,
                                 "bogus": 2.0}), "bogus"),
    (lambda: tg.model_from_json({"family": "constant", "c": 1.0,
                                 "domain_lo": 0.5}), "domain_lo"),
], ids=["pair_level", "model_level", "domain_low_typo"])
def test_material_json_rejects_unknown_keys(build, key):
    with pytest.raises(InvalidMaterial, match=repr(key)):
        build()


def test_family_names_are_the_classes():
    assert tg.constant is tg.Constant and tg.table is tg.Table
    assert tg.wiedemann_franz is tg.WiedemannFranz
    # to_json lists exactly the dataclass fields but the pair-level partner
    pair = tg.MaterialPair(kappa=tg.log_affine(1.0, 0.5, 0.8),
                           rho=tg.wiedemann_franz(0.7), alpha0=1.0)
    assert pair.to_json()["kappa"] == {"family": "log_affine", "c0": 1.0,
                                       "c1": 0.5, "T_ref": 0.8}
    assert pair.to_json()["rho"] == {"family": "wiedemann_franz", "Lo": 0.7}


def test_material_json_rejects_unknown_family():
    with pytest.raises(InvalidMaterial):
        tg.model_from_json({"family": "cubic", "a": 1.0})
    with pytest.raises(InvalidMaterial):
        tg.model_from_json({"family": "linear", "a": 1.0})  # missing b


@pytest.mark.parametrize("knots", [5, [[1.0, 1.0, 1.0], [2.0, 2.0]]],
                         ids=["not_a_list", "three_element_knot"])
def test_material_json_rejects_malformed_table_knots(knots):
    # numbers every one, but no list of (T, value) pairs: the family's own
    # constructor fails, and the failure is an InvalidMaterial
    with pytest.raises(InvalidMaterial, match=r"^bad parameters for family 'table'"):
        tg.model_from_json({"family": "table", "knots": knots})
