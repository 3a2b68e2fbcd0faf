"""Shared builders for the test suite: canonical specs and randomized ones.

Randomized specs cycle through every property family, sample T_c in
[0.5, 400] with T_h/T_c in (1, 3], and choose alpha0 so that z*T_m lands in a
moderate band (both signs of alpha0 are exercised).
"""

import math

import numpy as np
from scipy.integrate import quad

import tegsolve as tg

import oracles

RHO_FAMILIES = ("constant", "linear", "reciprocal", "log_affine",
                "clamped_linear", "table", "wiedemann_franz")
KAPPA_FAMILIES = ("constant", "reciprocal", "linear", "table",
                  "wiedemann_franz", "log_affine", "clamped_linear")


def unit_spec(alpha0=1.0, T_h=2.0, T_c=1.0, L=1.0, A_c=1.0):
    """kappa = rho = 1: the constant-property workhorse."""
    pair = tg.MaterialPair(kappa=tg.constant(1.0), rho=tg.constant(1.0),
                           alpha0=alpha0)
    return tg.GeneratorSpec(pair=pair, T_h=T_h, T_c=T_c, L=L, A_c=A_c)


def three_solution_problem():
    """Clamped-resistivity setup with three steady states at R_load = 8."""
    alpha0 = (-1.5 * math.sqrt(3) + 2.5 * math.sqrt(19)
              + 4.0 / math.sqrt(3) * math.atan(3.0))
    pair = tg.MaterialPair(
        kappa=tg.constant(1.0),
        rho=tg.clamped_linear(M=48.0, T_pivot=2.0, v_pivot=2.0),
        alpha0=alpha0,
    )
    spec = tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0, L=1.0, A_c=1.0)
    return tg.LoadResistanceProblem(spec=spec, R_load=8.0)


def two_solution_problem():
    """Same material/load, alpha0 at the stationary level of H: a tangency
    root plus one simple root."""
    base = three_solution_problem()
    hp = lambda t: (-3.0 + 5.0 * t / math.sqrt(t * t + 4.0)
                    + 8.0 / (1.0 + 12.0 * t * t))
    from scipy.optimize import brentq
    th1 = brentq(hp, 1.0, 1.45, xtol=1e-15)
    alpha0 = oracles.clamped_H(2.0, 48.0, 1.0, 8.0, th1)
    pair = tg.MaterialPair(
        kappa=tg.constant(1.0),
        rho=tg.clamped_linear(M=48.0, T_pivot=2.0, v_pivot=2.0),
        alpha0=alpha0,
    )
    spec = tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0, L=1.0, A_c=1.0)
    return tg.LoadResistanceProblem(spec=spec, R_load=8.0), th1


def quad_K(spec, T):
    """Reference K(T) = T_c + \\int_{T_c}^{T} kappa by adaptive quadrature."""
    pts = [t for t in spec.pair.kappa.kinks() if spec.T_c < t < T]
    val, _ = quad(spec.pair.kappa.value, spec.T_c, T, epsabs=1e-14, epsrel=1e-13,
                  points=pts or None, limit=200)
    return spec.T_c + val


def make_model(rng, family, T_c, T_h):
    T_m = 0.5 * (T_c + T_h)
    v = rng.uniform(0.5, 2.5)
    if family == "constant":
        return tg.constant(v)
    if family == "linear":
        return tg.linear(a=v * rng.uniform(0.2, 1.0) / T_m,
                         b=v * rng.uniform(0.1, 1.0))
    if family == "reciprocal":
        return tg.reciprocal(v * T_m)
    if family == "log_affine":
        # T_ref <= T_c keeps the positivity threshold below the cold end
        return tg.log_affine(c0=v, c1=rng.uniform(0.1, 0.9),
                             T_ref=T_c * rng.uniform(0.7, 1.0))
    if family == "clamped_linear":
        return tg.clamped_linear(
            M=v * rng.uniform(0.5, 4.0) / max(T_h - T_c, 1e-3),
            T_pivot=rng.uniform(T_c, T_h),
            v_pivot=v,
        )
    if family == "table":
        Ts = np.linspace(0.7 * T_c, 2.5 * T_h, 9)
        vals = v * rng.uniform(0.6, 1.6, size=Ts.size)
        return tg.table(list(zip(Ts, vals)))
    if family == "wiedemann_franz":
        return tg.wiedemann_franz(Lo=v / T_m)
    raise ValueError(family)


def random_spec(rng, idx, z_T_m_band=(0.3, 4.0)):
    """One randomized spec; idx cycles the family combinations."""
    rho_fam = RHO_FAMILIES[idx % len(RHO_FAMILIES)]
    kap_fam = KAPPA_FAMILIES[(idx // len(RHO_FAMILIES)) % len(KAPPA_FAMILIES)]
    if rho_fam == "wiedemann_franz" and kap_fam == "wiedemann_franz":
        kap_fam = "constant"
    T_c = rng.uniform(0.5, 400.0)
    T_h = T_c * rng.uniform(1.05, 3.0)
    pair0 = tg.MaterialPair(
        kappa=make_model(rng, kap_fam, T_c, T_h),
        rho=make_model(rng, rho_fam, T_c, T_h),
        alpha0=1.0,
    )
    r = tg.rho_kappa_integral(pair0, T_c, T_h)
    z_target = rng.uniform(*z_T_m_band) / (0.5 * (T_h + T_c))
    alpha0 = math.sqrt(z_target * r / (T_h - T_c))
    if rng.uniform() < 0.5:
        alpha0 = -alpha0
    pair = tg.MaterialPair(kappa=pair0.kappa, rho=pair0.rho, alpha0=alpha0)
    return tg.GeneratorSpec(pair=pair, T_h=T_h, T_c=T_c,
                            L=rng.uniform(0.5, 2.0), A_c=rng.uniform(0.5, 2.0))
