"""Array hitting-time kernel against the per-panel scalar loop it replaced,
and the Gauss-Legendre W grid against per-segment adaptive quadrature."""

import ast
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad, quad_vec
from scipy.optimize import brentq

import tegsolve as tg
from tegsolve import ivp, loadmode, materials

import oracles
from helpers import (make_model, random_spec, three_solution_problem, unit_spec,
                     two_solution_problem)

REL = 1e-13  # summation order differs from the loop; the arithmetic does not
TINY = np.finfo(float).tiny  # a q_max that only the first block's rest serves
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(80)
DESCENT_NODES, DESCENT_WEIGHTS = np.polynomial.legendre.leggauss(24)
EXCURSION_NODES, EXCURSION_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _sub_intervals(ends, span):
    """The sub-intervals (a, b) between the sorted ends, ceil(4 width / span)
    equal ones per panel."""
    for lo, hi in zip(ends[:-1], ends[1:]):
        n_sub = math.ceil(4.0 * (hi - lo) / span)
        step = (hi - lo) / n_sub
        edges = [j * step + lo for j in range(n_sub)] + [hi]
        yield from zip(edges[:-1], edges[1:])


def _graded_sub_panels(a, b, levels, toward_a):
    """The sub-panels of [a, b] graded by 1/4 toward a (or b) over levels:
    [a + h 4^-k-1, a + h 4^-k] for k < levels and [a, a + h 4^-levels],
    h = b - a, from a to b."""
    h = b - a
    cuts = [h * 0.25 ** k for k in range(levels, -1, -1)]
    if toward_a:
        edges = [a] + [a + c for c in cuts]
    else:
        edges = [b - c for c in reversed(cuts)] + [b]
    return list(zip(edges[:-1], edges[1:]))


def _angle_ends(t, theta):
    """0, the phi_k = asin(sqrt(2 q_k) / theta) of the kinks above T_h that
    theta > 0 reaches, and pi/2."""
    return [0.0] + [math.asin(math.sqrt(2.0 * q_k) / theta) for q_k in t.kink_q
                    if 0 < q_k and math.sqrt(2.0 * q_k) / theta < 1.0] + [0.5 * math.pi]


def _kink_sub_panels(ends):
    """The sub-panels of the panels between ends, each halved and graded
    toward its ends: _EXCURSION_LEVELS at 0, _KINK_LEVELS at a kink, none at
    pi/2."""
    levels = [ivp._EXCURSION_LEVELS] + [ivp._KINK_LEVELS] * (len(ends) - 2) + [0]
    out = []
    for i, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
        mid = a + 0.5 * (b - a)
        out += (_graded_sub_panels(a, mid, levels[i], True)
                + _graded_sub_panels(mid, b, levels[i + 1], False))
    return out


def reference_excursion(q, theta):
    """\\int_0^theta ds / rho(T(s)) for theta > 0 with every panel and node
    placed by scalar loops: in phi, sqrt(2 q) = theta sin(phi), the panel
    [0, pi/2] graded toward 0 when theta reaches no kink above T_h, else
    _kink_sub_panels of the panels between _angle_ends.  The row is one
    einsum sum over its nodes, as in the kernel."""
    theta = float(theta)
    t = q._reach(0.5 * theta * theta)
    assert ivp._EXCURSION_GL_ORDER == EXCURSION_NODES.size
    ends = _angle_ends(t, theta)
    phi, wsin = [], []
    if len(ends) == 2:  # placed on [0, 1] and scaled by pi/2, as in the kernel
        for a, b in _graded_sub_panels(0.0, 1.0, ivp._EXCURSION_LEVELS, True):
            x = 0.5 * math.pi * (0.5 * (b - a) * EXCURSION_NODES + 0.5 * (a + b))
            phi.append(x)
            wsin.append(0.5 * math.pi * (0.5 * (b - a) * EXCURSION_WEIGHTS) * np.sin(x))
    else:
        for c, d in _kink_sub_panels(ends):
            x = 0.5 * (d - c) * EXCURSION_NODES + 0.5 * (c + d)
            phi.append(x)
            wsin.append(0.5 * (d - c) * EXCURSION_WEIGHTS * np.sin(x))
    m = theta * np.sin(np.concatenate(phi))
    g = 1.0 / q.spec.pair.rho.value(t.inv(np.clip(0.5 * m * m, t.W[0], t.W[-1])))
    return theta * float(np.einsum("j,j->", g, np.concatenate(wsin)))


def _descent_ends(q, t):
    """The descent's sub-interval ends in p, sorted: P 4^-k for k =
    _DESCENT_LEVELS .. 0, P = sqrt(2r), the three quarter points of [P/4, P]
    and the sqrt(-2 q_k) of the kinks below T_h."""
    P = math.sqrt(2.0 * q.spec.rk)
    h0 = P * 0.25 ** ivp._DESCENT_LEVELS
    ends = {P * 0.25 ** k for k in range(ivp._DESCENT_LEVELS + 1)}
    for j in (1, 2, 3):
        ends.add(j * ((P - 0.25 * P) / 4) + 0.25 * P)
    for q_k in t.kink_q:
        if q_k < 0 and h0 < math.sqrt(-2.0 * q_k) < P:
            ends.add(math.sqrt(-2.0 * q_k))
    return sorted(ends)


def reference_y_c(q, theta):
    """y_c(theta) with every panel, sub-interval and node placed by scalar
    loops: the descent from T_h to T_c in p = sqrt(-2 W(T)) between the
    _descent_ends, with [0, h0] in closed form, and for theta > 0 twice
    reference_excursion.  The Gauss-Legendre sums of one theta are einsum
    sums, as in the kernel: a tangency theta minimises a flat H, so it
    follows H to the last bit."""
    theta = float(theta)
    t = q._reach(0.5 * theta * theta) if theta > 0 else q._table
    rho = q.spec.pair.rho.value

    def inv_rho(qq):
        return 1.0 / rho(t.inv(np.clip(qq, t.W[0], t.W[-1])))

    assert ivp._DESCENT_GL_ORDER == DESCENT_NODES.size
    tau = abs(theta)
    ends = _descent_ends(q, t)
    h0, P = ends[0], ends[-1]
    p, wf = [], []
    for a, b in zip(ends[:-1], ends[1:]):
        x = 0.5 * (b - a) * DESCENT_NODES + 0.5 * (a + b)
        p.append(x)
        wf.append(0.5 * (b - a) * DESCENT_WEIGHTS * inv_rho(-0.5 * x * x))
    p = np.concatenate(p)
    total = float(np.einsum("j,j->", p / np.sqrt(tau * tau + p * p), np.concatenate(wf)))
    total += h0 * h0 / (math.hypot(h0, tau) + tau) / rho(q.spec.T_h)
    if theta > 0:
        total += 2.0 * reference_excursion(q, theta)
    return total


def test_array_y_c_matches_scalar_loop_on_all_family_pairs(monkeypatch):
    # a coarse W^-1 grid keeps the quad-fallback builds cheap; both routes
    # read the same grid, so the comparison is unaffected
    monkeypatch.setattr(ivp, "_N_BASE", 257)
    rng = np.random.default_rng(71)
    for idx in range(49):
        spec = random_spec(rng, idx)
        q = tg.HittingTimeQuadrature(spec)
        q._reach(TINY)  # the rest of the first block: the grid reaches T_h + 2 dT
        W_top = float(q._table.W[-1])
        s = math.sqrt(2.0 * spec.rk)
        big = math.sqrt(3.0 * W_top)  # theta^2 / 2 = 1.5 W_top: extends the grid
        thetas = np.array([-4.0 * s, -s, -0.05 * s, 0.0, 0.05 * s, 0.7 * s, s, big])
        got = q.y_c(thetas)
        assert q._table.W[-1] >= 0.5 * big * big > W_top, idx
        for th, y in zip(thetas, got):
            ref = reference_y_c(q, th)
            assert abs(y - ref) <= REL * ref, (idx, th, y, ref)
            one = q.y_c(float(th))
            assert isinstance(one, float)
            assert abs(one - ref) <= REL * ref, (idx, th, one, ref)


def test_array_y_c_keeps_shape_handles_empty_and_rejects_nan():
    q = tg.HittingTimeQuadrature(three_solution_problem().spec)
    grid = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    got = q.y_c(grid)
    assert got.shape == (3, 4)
    np.testing.assert_array_equal(got.ravel(), q.y_c(grid.ravel()))
    assert q.y_c(np.array([])).shape == (0,)
    with pytest.raises(tg.DomainError):
        q.y_c(np.array([0.5, np.nan]))


def _scalar_loop_enumeration(prob, monkeypatch):
    """enumerate_solutions with every y_c, the scan included, by the loop."""
    def loop_y_c(self, theta):
        if np.ndim(theta) == 0:
            return reference_y_c(self, theta)
        return np.array([reference_y_c(self, t) for t in np.ravel(theta)])

    with monkeypatch.context() as m:
        m.setattr(tg.HittingTimeQuadrature, "y_c", loop_y_c)
        return loadmode.enumerate_solutions(
            loadmode.LoadResistanceProblem(spec=prob.spec, R_load=prob.R_load))


@pytest.mark.parametrize("make", [three_solution_problem,
                                  lambda: two_solution_problem()[0]],
                         ids=["three_solutions", "two_solutions"])
def test_scan_matches_scalar_loop(make, monkeypatch):
    prob = make()
    ref = _scalar_loop_enumeration(prob, monkeypatch)
    got = tg.enumerate_solutions(make())
    d_ref, d_got = ref.scan_diagnostics, got.scan_diagnostics
    np.testing.assert_array_equal(d_got.theta_grid, d_ref.theta_grid)
    np.testing.assert_allclose(d_got.H_values, d_ref.H_values, rtol=REL, atol=0)
    assert len(got) == len(ref)
    assert [r.tangency for r in got.roots] == [r.tangency for r in ref.roots]
    for a, b in zip(got.roots, ref.roots):
        # a tangency root is a minimiser of (H - |V|)^2, fixed to ~sqrt(eps)
        assert a.theta == pytest.approx(b.theta, rel=1e-8 if b.tangency else 1e-12)


def test_y_c_peak_allocation_is_bounded():
    q = tg.HittingTimeQuadrature(three_solution_problem().spec)
    thetas = np.linspace(-3.0, 3.0, 65_536)
    q.y_c(thetas[:10])  # Gauss-Legendre nodes and other one-off caches
    tracemalloc.start()
    try:
        out = q.y_c(thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == thetas.shape
    # 0.5 MB of output plus one chunk's node arrays; unchunked, each array
    # over the 2.5e7 nodes would take 190 MB
    assert peak < 4 * 2**20, peak


def reference_W(q):
    """W on q's nodes by adaptive Gauss-Kronrod quadrature of every segment
    (kinks sit on nodes; scipy's quad_vec, all segments mapped onto [-1, 1]
    in one vector-valued call), summed from T_c and anchored at W(T_h) = 0."""
    grid, pair = q._table.T, q.spec.pair
    half, mid = 0.5 * np.diff(grid), 0.5 * (grid[:-1] + grid[1:])
    seg, _ = quad_vec(lambda s: half * pair.rho_kappa(mid + half * s), -1.0, 1.0,
                      epsabs=0.0, epsrel=1e-14, norm="max")
    W = np.concatenate([[0.0], np.cumsum(seg)])
    return W - W[int(np.searchsorted(grid, q.spec.T_h))]


def _spec_at(seed, idx):
    """The idx-th spec random_spec draws from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for i in range(idx + 1):
        spec = random_spec(rng, i)
    return spec


def test_w_grid_matches_coupling_integrals_on_all_family_pairs(monkeypatch):
    monkeypatch.setattr(ivp, "_N_BASE", 257)
    rng = np.random.default_rng(71)
    for idx in range(49):
        spec = random_spec(rng, idx)
        pair = spec.pair
        q = tg.HittingTimeQuadrature(spec)
        W = q._table.W
        # 8-point GL is exact to rounding on every segment
        err = np.max(np.abs(W - reference_W(q))) / np.max(np.abs(W))
        assert err <= 1e-15, (idx, pair.kappa.family, pair.rho.family, err)
        s = math.sqrt(2.0 * spec.rk)
        if pair.kappa.family == pair.rho.family == "reciprocal":
            # rho*kappa ~ 1/T^2: its integral converges short of 8 r
            with pytest.raises(tg.NumericalBlowup):
                q.y_c(4.0 * s)
            continue
        n_old = W.size
        q.y_c(4.0 * s)
        assert q._table.W.size > n_old
        np.testing.assert_array_equal(q._table.W[:n_old], W)
        # appended blocks are summed from the old top, the reference from T_c
        err = np.max(np.abs(q._table.W - reference_W(q))) / np.max(np.abs(q._table.W))
        assert err <= 1e-13, (idx, pair.kappa.family, pair.rho.family, err)


@pytest.mark.parametrize("kap_fam,rho_fam", [
    ("linear", "log_affine"), ("table", "table"),
    ("clamped_linear", "linear"), ("log_affine", "log_affine"),
])
def test_w_grid_build_makes_no_quad_call(kap_fam, rho_fam, monkeypatch):
    rng = np.random.default_rng(5)
    T_c = rng.uniform(250.0, 350.0)
    T_h = T_c * rng.uniform(1.6, 2.2)
    pair = tg.MaterialPair(kappa=make_model(rng, kap_fam, T_c, T_h),
                           rho=make_model(rng, rho_fam, T_c, T_h), alpha0=1e-3)
    spec = tg.GeneratorSpec(pair=pair, T_h=T_h, T_c=T_c)

    def no_quad(*args, **kwargs):
        raise AssertionError("scipy.quad called while building the W grid")

    monkeypatch.setattr(scipy.integrate, "quad", no_quad)
    assert spec.rk > 0 and spec.u_h > T_c  # r and K take the same GL pass
    q = tg.HittingTimeQuadrature(spec)
    q._reach(TINY)
    assert q._table.T.size >= ivp._N_BASE


def test_package_does_not_import_scipy():
    # every property integral goes through materials.segment_integrals, and
    # the spline and the root finders are numpy and plain Python
    src = Path(tg.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [(path.name, n) for n in names
                      if n == "scipy" or n.startswith("scipy.")]
    assert found == []


def test_y_c_does_not_depend_on_earlier_theta():
    # constant kappa x reciprocal rho, T_c 279 K: a large theta appends to
    # the grid and leaves the nodes that y_c(3 s) reads untouched
    spec = _spec_at(3, 2)
    s = math.sqrt(2.0 * spec.rk)
    ref = oracles.integrate_ivp(spec, 3.0 * s, tol_ode=1e-12).y_c
    q = tg.HittingTimeQuadrature(spec)
    first = q.y_c(3.0 * s)
    assert abs(first - ref) <= 1e-10 * ref
    q.y_c(4.0 * s)
    assert q.y_c(3.0 * s) == first


def test_y_c_on_appended_grid_matches_rk45():
    # reciprocal kappa x table rho: theta = 4 s appends 13 blocks to the grid
    spec = _spec_at(71, 12)
    theta = 4.0 * math.sqrt(2.0 * spec.rk)
    ref = oracles.integrate_ivp(spec, theta, tol_ode=1e-12).y_c
    y = tg.HittingTimeQuadrature(spec).y_c(theta)
    assert abs(y - ref) <= 1e-10 * ref


def test_converging_coupling_integral_raises_numerical_blowup():
    # reciprocal kappa x reciprocal rho: W stops growing before theta^2 / 2
    spec = _spec_at(3, 9)
    q = tg.HittingTimeQuadrature(spec)
    q._reach(TINY)
    grid = q._table.T
    with pytest.raises(tg.NumericalBlowup,
                       match=r"stops growing at T=.*; rho\*kappa appears integrable"):
        q.y_c(4.0 * math.sqrt(2.0 * spec.rk))
    assert q._table.T is grid  # the failed extension appended nothing


def test_coupling_integral_stalled_below_T_h_raises_numerical_blowup():
    # rho * kappa = 1e-400 underflows to 0: W stops growing at T_c already,
    # so the table cannot even reach T_h
    pair = tg.MaterialPair(tg.constant(1e-200), tg.constant(1e-200), 1.0)
    spec = tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0)
    with pytest.raises(tg.NumericalBlowup, match=r"^coupling integral stops growing at T=1;"):
        tg.HittingTimeQuadrature(spec)


def test_theta_squared_overflow_raises_numerical_blowup():
    # theta^2 overflows a float: the slope range w_c..theta is not representable
    spec = _spec_at(3, 2)
    q = tg.HittingTimeQuadrature(spec)
    with pytest.raises(tg.NumericalBlowup, match="not a finite float"):
        q.y_c(-1e200)
    with pytest.raises(tg.NumericalBlowup, match="not a finite float"):
        q.y_c(1e200)
    with pytest.raises(tg.NumericalBlowup, match="not a finite float"):
        q.materialize(-1e200, gamma=1.0)


def test_nan_theta_raises_domain_error():
    q = tg.HittingTimeQuadrature(_spec_at(3, 2))
    with pytest.raises(tg.DomainError):
        q.y_c(math.nan)
    with pytest.raises(tg.DomainError):
        q.materialize(math.nan, gamma=1.0)


def _mirror_cases():
    yield "three_solutions", three_solution_problem().spec
    yield "two_solutions", two_solution_problem()[0].spec
    rng = np.random.default_rng(71)
    for idx in range(20):
        yield f"random_{idx}", random_spec(rng, idx)


@pytest.mark.parametrize("name,spec", list(_mirror_cases()),
                         ids=[name for name, _ in _mirror_cases()])
def test_mirrored_panels_match_full_panel_rule(name, spec, monkeypatch):
    monkeypatch.setattr(ivp, "_N_BASE", 1025)
    q = tg.HittingTimeQuadrature(spec)
    s = math.sqrt(2.0 * spec.rk)
    V = abs(spec.V)
    thetas = np.array([-3.0 * s, -s, -0.1 * s, 0.0, 1e-3 * s, 0.1 * s, 0.5 * s,
                       s, 0.5 * V, 0.99 * V])
    q.y_c(thetas)  # extends the grid first, so both read the same one
    descent = q._descent
    q._descent = descent._replace(wf=0.0 * descent.wf, f0=0.0)  # C = 0: the excursion
    got = q.y_c(thetas)
    q._descent = descent
    # the excursion has no mirror panels: its reference is the scalar phi loop
    want = [2.0 * reference_excursion(q, th) if th > 0 else 0.0 for th in thetas]
    np.testing.assert_array_equal(got[thetas <= 0], 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0, err_msg=name)


def test_profile_y_c_is_y_c_of_theta_bit_for_bit():
    rng = np.random.default_rng(71)
    for idx in range(49):
        spec = random_spec(rng, idx)
        q = tg.HittingTimeQuadrature(spec)
        P = math.sqrt(2.0 * spec.rk)
        for f in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0):
            assert q.materialize(f * P, gamma=1.0).y_c == q.y_c(f * P), (idx, f)


def quad_profile(q, theta, n_out):
    """(T, y_c) of the profile of theta at the output points y_j = j y_c /
    n_out: y(s) = \\int_0^s ds / rho(T(s)), T = W^-1(s (2 theta - s) / 2) on
    q's table, by scipy's quad on [0, I(theta)] split at s = theta and at
    the s-images theta -+ sqrt(theta^2 - 2 q_k) of the kinks, each y_j
    inverted by scipy's brentq within its piece."""
    theta = float(theta)
    t = q._reach(0.5 * theta * theta) if theta > 0 else q._table
    rho = q.spec.pair.rho.value
    I = float(tg.shooting_function(q.spec, theta))

    def T(s):
        return t.inv(np.clip(0.5 * s * (2.0 * theta - s), t.W[0], t.W[-1]))

    def y(a, b):
        return quad(lambda s: 1.0 / float(rho(T(s))), a, b,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    cuts = {0.0, I, theta}
    for q_k in t.kink_q:
        if theta * theta > 2.0 * q_k:
            root = math.sqrt(theta * theta - 2.0 * q_k)
            cuts |= {theta - root, theta + root}
    cuts = sorted(c for c in cuts if 0.0 <= c <= I)
    ys = np.cumsum([0.0] + [y(a, b) for a, b in zip(cuts[:-1], cuts[1:])])
    s_out = [0.0]
    for j in range(1, n_out):
        y_j = j * ys[-1] / n_out
        k = int(np.searchsorted(ys, y_j, "right")) - 1
        a, b = cuts[k], cuts[k + 1]
        s_out.append(brentq(lambda s: ys[k] + y(a, s) - y_j, a, b,
                            xtol=1e-16 * I, rtol=4.0 * np.finfo(float).eps))
    s_out = np.array(s_out + [I])
    return T(s_out), float(ys[-1])


def test_profiles_at_twice_P_match_quad_on_the_table_legs():
    # legs whose profile the earlier knot budget missed at 2P: 3.2e-7 T_h on
    # leg 13, 4.7e-10 and 1.2e-8 on the table legs 24 and 27
    rng = np.random.default_rng(71)
    specs = [random_spec(rng, idx) for idx in range(28)]
    for idx in (13, 24, 27):
        spec = specs[idx]
        q = tg.HittingTimeQuadrature(spec)
        theta = 2.0 * math.sqrt(2.0 * spec.rk)
        T, y_c = quad_profile(q, theta, 8)
        sol = q.materialize(theta, gamma=1.0, n_out=8)
        assert sol.y_c == pytest.approx(y_c, rel=1e-13, abs=0), idx
        assert np.max(np.abs(sol.T - T)) <= 1e-11 * spec.T_h, idx


def _sweep_cases():
    rng = np.random.default_rng(71)
    for idx in range(49):
        spec = random_spec(rng, idx)
        P = math.sqrt(2.0 * spec.rk)
        yield f"random_{idx}", spec, [f * P for f in (-4.0, -1.0, -0.1, -1e-3, 0.0, 1e-3,
                                                      0.1, 0.5, 1.0, 2.0, 4.0)]
    for rho_e in (0.02, 0.005, 0.001):
        pair = tg.MaterialPair(tg.constant(1.0), oracles.steep_table_rho(rho_e), 3.0)
        yield f"steep_{rho_e}", tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0), \
            [0.5, 2.0, 5.0, 20.0]
    for name, prob in (("three_solutions", three_solution_problem()),
                       ("two_solutions", two_solution_problem()[0])):
        yield name, prob.spec, np.linspace(-3.0, 0.5 * abs(prob.spec.V), 41)


def test_every_profile_point_converges():
    # materialize raises NumericalBlowup for a point its Newton steps leave
    # unconverged; leg 9 (rho * kappa integrable) has no table up to 4P
    for name, spec, thetas in _sweep_cases():
        q = tg.HittingTimeQuadrature(spec)
        for theta in thetas:
            if name == "random_9" and theta > 3.0 * math.sqrt(2.0 * spec.rk):
                with pytest.raises(tg.NumericalBlowup, match="appears integrable"):
                    q.materialize(float(theta), gamma=1.0)
                continue
            sol = q.materialize(float(theta), gamma=1.0)
            assert np.all(np.isfinite(sol.T)), (name, theta)


@pytest.mark.parametrize("theta", [-0.5, 0.0, 0.5])
def test_materialize_raises_where_newton_never_settles(theta, monkeypatch):
    # monkeypatched: the 16-point Gauss-Legendre sums that the Newton steps
    # read come back three times too large, so each step lands twice its
    # error past the root and the 16-step cap raises; rho is not constant,
    # so not every start is exact already
    pair = tg.MaterialPair(kappa=tg.constant(1.0), rho=tg.linear(a=1.0, b=0.5),
                           alpha0=1.0)
    q = tg.HittingTimeQuadrature(tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0))
    q.y_c(theta)  # the table it needs, before the patch
    real = ivp.gauss_legendre_on

    def tripled_at_16(a, b, order):
        x, half, w = real(a, b, order)
        return x, 3.0 * half if order == 16 else half, w

    monkeypatch.setattr(ivp, "gauss_legendre_on", tripled_at_16)
    with pytest.raises(tg.NumericalBlowup, match="in 16 Newton steps"):
        q.materialize(theta, gamma=1.0, n_out=8)


def eager_first_block(q):
    """Nodes of q's whole first block [T_c, T_h + 2 dT] in one pass, as the
    grid was built before it grew on demand, and W above T_h: the running
    sum of the segment integrals there from W(T_h) = 0."""
    spec = q.spec
    grid = materials.segment_nodes(spec.pair, spec.T_c, q._table.top, ivp._N_BASE,
                                   extra=(spec.T_h,))
    i_h = int(np.searchsorted(grid, spec.T_h))
    seg = materials.segment_integrals(spec.pair.rho_kappa, grid[i_h:])
    return grid, np.cumsum(np.concatenate([[0.0], seg]))


def test_w_grid_reaches_above_T_h_only_for_positive_theta(monkeypatch):
    built = []

    class Recorded(ivp.HittingTimeQuadrature):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(ivp, "HittingTimeQuadrature", Recorded)
    rng = np.random.default_rng(71)
    for idx in range(14):  # every kappa family and every rho family
        spec = random_spec(rng, idx)
        gamma = next(g for g in (0.25, 1.0, 4.0, 16.0)
                     if tg.matched_initial_slope(spec, g) <= 0)
        sol = tg.solve_ratio_mode(spec, gamma)
        q = built[-1]
        # theta <= 0: the trajectory stays at or below T_h, and so does the grid
        assert q._table.T[-1] == spec.T_h == sol.T[0], idx
        prefix_T, prefix_W = q._table.T, q._table.W
        q.y_c(0.01 * math.sqrt(2.0 * spec.rk))
        # the first theta > 0 appends the rest of the first block, bit for bit
        grid, W_rest = eager_first_block(q)
        np.testing.assert_array_equal(q._table.T, grid, err_msg=str(idx))
        np.testing.assert_array_equal(q._table.W[:prefix_W.size], prefix_W)
        np.testing.assert_array_equal(q._table.W[prefix_W.size - 1:], W_rest,
                                      err_msg=str(idx))
        assert prefix_T.size < grid.size


def test_table_taken_before_an_extension_still_gives_the_same_y_c():
    # each call reads one table: an extension publishes a new one and leaves
    # the old one, and theta <= 0 reads only the nodes up to T_h of either
    rng = np.random.default_rng(71)
    for idx in range(14):  # every kappa family and every rho family
        spec = random_spec(rng, idx)
        s = math.sqrt(2.0 * spec.rk)
        thetas = np.array([-3.0 * s, -s, -0.1 * s, 0.0])
        q = tg.HittingTimeQuadrature(spec)
        old = q._table
        first = q._y_c_chunk(old, thetas)
        q.y_c(0.5 * s)
        assert q._table is not old and q._table.T.size > old.T.size, idx
        for t in (old, q._table):
            np.testing.assert_array_equal(q._y_c_chunk(t, thetas), first, str(idx))
        np.testing.assert_array_equal(q.y_c(thetas), first, str(idx))
        # a descent first built on an extended table has the same bits
        late = tg.HittingTimeQuadrature(spec)
        late.y_c(0.5 * s)
        np.testing.assert_array_equal(late.y_c(thetas), first, str(idx))


def test_threads_sharing_one_quadrature_get_the_single_thread_y_c():
    # reciprocal kappa x table rho: theta = 4 s appends 13 blocks, so threads
    # extend the shared table while others read it
    spec = _spec_at(71, 12)
    s = math.sqrt(2.0 * spec.rk)
    thetas = [k * s for k in (-1.0, 0.5, 4.0, 1.0, 3.0, 2.0, 0.0, 3.5)]
    want = [tg.HittingTimeQuadrature(spec).y_c(th) for th in thetas]
    shared = tg.HittingTimeQuadrature(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(shared.y_c, thetas * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 4


def _stall_above_T_h():
    # kappa = 3 - T: W stops growing at 3 K, inside the first block's rest
    pair = tg.MaterialPair(kappa=tg.linear(a=-1.0, b=3.0), rho=tg.constant(1.0),
                           alpha0=0.5)
    return tg.GeneratorSpec(pair=pair, T_h=2.5, T_c=1.0), 1.0, 0.45


def _converging():
    # reciprocal kappa x reciprocal rho: W converges, the appended blocks run out
    spec = _spec_at(3, 9)
    s = math.sqrt(2.0 * spec.rk)
    return spec, 4.0 * s, 0.5 * s


@pytest.mark.parametrize("case", [_stall_above_T_h, _converging],
                         ids=["stall_in_first_block", "converging"])
def test_failed_extension_leaves_the_quadrature_unchanged(case):
    spec, too_far, reachable = case()
    q = tg.HittingTimeQuadrature(spec)
    before = dict(vars(q))
    with pytest.raises(tg.NumericalBlowup):
        q.y_c(too_far)
    assert vars(q).keys() == before.keys()
    assert all(vars(q)[k] is v for k, v in before.items())
    # the first block's rest is still there for a theta it can serve
    assert q.y_c(reachable) > 0
    assert q._table.T[-1] > spec.T_h


def _sign_change_leg(rho):
    # kappa = 3 - T turns negative at 3 K, above T_h = 2
    pair = tg.MaterialPair(kappa=tg.linear(a=-1.0, b=3.0), rho=rho, alpha0=1.0)
    return tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0)


@pytest.mark.parametrize("rho, theta", [
    (tg.wiedemann_franz(Lo=1.0), 5.0),  # rho kappa = T stays positive
    (tg.linear(a=-1.0, b=3.0), 2.0),     # rho kappa = (3 - T)^2 stays positive
], ids=["wiedemann_franz", "same_sign_change"])
def test_table_ends_where_kappa_and_rho_turn_invalid_above_T_h(rho, theta):
    # both change sign at 3 K, so rho kappa > 0 past it: the table used to run
    # on and gave a negative hitting time
    q = tg.HittingTimeQuadrature(_sign_change_leg(rho))
    with pytest.raises(tg.NumericalBlowup, match=r"no valid kappa and rho at T=3\.000"):
        q.y_c(theta)
    assert q._table.T[-1] < 3.0 < q._table.top


def test_doubling_cap_names_the_W_it_reached():
    # W = T - T_h diverges on the unit leg, but 120 doublings of the block
    # top reach only W ~ 1.3e36, short of theta^2 / 2 = 5e199
    with pytest.raises(tg.NumericalBlowup,
                       match=r"120 block doublings reach W=1\.3\d*e\+36 at T=1\.3\d*e\+36, "
                             r"short of the W=5e\+199 that theta needs"):
        tg.HittingTimeQuadrature(unit_spec()).y_c(1e100)


@pytest.mark.parametrize("theta", [5e-324, 1e-300, 1e-160, 1e-8])
def test_materialize_at_tiny_positive_theta(theta):
    # the [0, theta] sub-interval adds a y step far below an ulp of y_c; as a
    # knot of the w(y) spline its divided differences overflowed to T[0] = NaN
    pair = tg.MaterialPair(kappa=tg.constant(1e3), rho=tg.constant(1e3), alpha0=1.0)
    spec = tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = tg.HittingTimeQuadrature(spec).materialize(theta, gamma=1.0)
    assert np.all(np.isfinite(sol.T)) and np.all(np.isfinite(sol.q))
    assert sol.T[0] == spec.T_h
    assert abs(sol.T[-1] - spec.T_c) <= 1e-14


def s_form_y_c(q, theta):
    """y_c(theta <= 0) by the rule before the descent was split off, as a
    scalar loop: the whole drop [0, I(theta)] in s, split at the s-images
    2 q_k / b of the kinks below T_h, each panel cut into ceil(4 width / I)
    sub-intervals of 80-point Gauss-Legendre."""
    t = q._table
    I = float(tg.shooting_function(q.spec, theta))
    pts = {0.0, I}
    for q_k in t.kink_q:
        if q_k < 0:
            image = 2.0 * q_k / (theta - math.sqrt(theta * theta - 2.0 * q_k))
            if image < I:
                pts.add(image)
    total = 0.0
    for a, b in _sub_intervals(sorted(pts), I):
        s = 0.5 * (b - a) * GL_NODES + 0.5 * (a + b)
        T = t.inv(np.clip(0.5 * s * (2.0 * theta - s), t.W[0], t.W[-1]))
        total += 0.5 * (b - a) * float(np.dot(GL_WEIGHTS, 1.0 / q.spec.pair.rho.value(T)))
    return total


def test_descent_on_the_unit_leg_matches_the_exact_integral():
    # kappa = rho = 1: y_c(-tau) = sqrt(tau^2 + 2r) - tau, for tau from 0
    # and subnormal up to 1e4 P, P = sqrt(2r)
    spec = unit_spec()
    q = tg.HittingTimeQuadrature(spec)
    P = math.sqrt(2.0 * spec.rk)
    for tau in [0.0, 5e-324, 1e-300] + [P * 10.0 ** k for k in range(-14, 5)]:
        exact = 2.0 * spec.rk / (math.sqrt(tau * tau + 2.0 * spec.rk) + tau)
        assert abs(q.y_c(-tau) - exact) <= 1e-14 * exact, tau


@pytest.mark.parametrize("k,M,v,T_c,T_h", [(1.0, 48.0, 2.0, 1.0, 2.0),
                                          (0.4, 5.0, 0.3, 300.0, 600.0),
                                          (3.0, 0.02, 7.0, 0.5, 0.6)])
def test_descent_on_clamped_legs_matches_the_closed_form(k, M, v, T_c, T_h):
    # rho = v below T_h, the ramp of slope M above: theta <= 0 is all descent
    pair = tg.MaterialPair(kappa=tg.constant(k),
                           rho=tg.clamped_linear(M=M, T_pivot=T_h, v_pivot=v),
                           alpha0=1.0)
    spec = tg.GeneratorSpec(pair=pair, T_h=T_h, T_c=T_c)
    q = tg.HittingTimeQuadrature(spec)
    P = math.sqrt(2.0 * spec.rk)
    for f in (-4.0, -1.0, -0.1, -1e-3, 0.0):
        exact = oracles.clamped_hitting_time(v, M / k, k * (T_h - T_c), f * P)
        assert abs(q.y_c(f * P) - exact) <= 1e-14 * exact, f


def test_descent_matches_the_s_form_loop_on_all_family_pairs():
    rng = np.random.default_rng(71)
    for idx in range(49):
        spec = random_spec(rng, idx)
        q = tg.HittingTimeQuadrature(spec)
        P = math.sqrt(2.0 * spec.rk)
        for f in (-4.0, -3.0, -1.0, -0.1, -1e-3, 0.0):
            want = s_form_y_c(q, f * P)
            assert abs(q.y_c(f * P) - want) <= REL * want, (idx, f)


def test_kink_below_T_h_is_a_descent_panel_end():
    # rho a 9-knot table: the knot at 1.5 K is the one inside (T_c, T_h),
    # at W = -0.625 (rho falls linearly from 1.5 to 1 over [1.5, 2] K)
    knots = [(0.5 * (i + 1), 1.0 + 0.25 * (i % 3)) for i in range(9)]
    pair = tg.MaterialPair(kappa=tg.constant(1.0), rho=tg.table(knots), alpha0=1.0)
    q = tg.HittingTimeQuadrature(tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0))
    (q_k,) = q._table.kink_q
    assert q_k == pytest.approx(-0.625, rel=1e-15)
    assert math.sqrt(-2.0 * q_k) in q._descent.ends


def test_scan_below_T_h_evaluates_no_W_inverse():
    # the descent's nodes are evaluated with the table, so a 2,048-theta scan
    # of theta <= 0 evaluates W^-1 nowhere
    q = tg.HittingTimeQuadrature(three_solution_problem().spec)
    points = []
    inv = q._table.inv
    q._table = q._table._replace(inv=lambda x: points.append(np.size(x)) or inv(x))
    P = math.sqrt(2.0 * q.spec.rk)
    q.y_c(np.linspace(-4.0 * P, 0.0, 2048))
    assert points == [] and q._descent.p.size <= 1000


def _bit_cases():
    for name, prob in (("three_solutions", three_solution_problem()),
                       ("two_solutions", two_solution_problem()[0])):
        V = abs(prob.spec.V)
        yield name, prob, np.linspace(-0.5, 0.5 * V, 2048)
    rng = np.random.default_rng(71)
    for idx in range(49):
        spec = random_spec(rng, idx)
        P = math.sqrt(2.0 * spec.rk)
        yield f"random_{idx}", tg.LoadResistanceProblem(spec=spec, R_load=1.0), \
            np.linspace(-3.0 * P, 2.0 * P, 300)


def test_grid_H_matches_per_theta_H_bit_for_bit():
    # every row of y_c is summed in a fixed order and placed by its own theta
    # alone, so the scan's H and the refinement's scalar H agree to the bit
    for name, prob, grid in _bit_cases():
        got = loadmode.H_of_theta(prob, grid)
        one = np.array([loadmode.H_of_theta(prob, float(th)) for th in grid])
        np.testing.assert_array_equal(got, one, err_msg=name)


@pytest.mark.parametrize("rho_e", [0.02, 0.005])
@pytest.mark.parametrize("theta", [5.0, 20.0])
def test_excursion_on_a_steep_rho_matches_the_closed_form(theta, rho_e):
    # rho falls from 1 to rho_e over the K above T_h; the ramp would reach 0
    # rho_e / (1 - rho_e) K past its kink at 3 K, next to a kink panel's end
    pair = tg.MaterialPair(tg.constant(1.0), oracles.steep_table_rho(rho_e), 3.0)
    q = tg.HittingTimeQuadrature(tg.GeneratorSpec(pair=pair, T_h=2.0, T_c=1.0))
    exact = oracles.steep_hitting_time(rho_e, theta)
    assert abs(q.y_c(theta) - exact) <= 1e-12 * exact


def test_y_c_on_the_three_solutions_scan_matches_the_closed_form():
    prob = three_solution_problem()
    grid = np.linspace(-0.5, 0.5 * abs(prob.spec.V), 2048)
    got = tg.HittingTimeQuadrature(prob.spec).y_c(grid)
    exact = np.array([oracles.clamped_hitting_time(2.0, 48.0, 1.0, th) for th in grid])
    assert np.max(np.abs(got - exact) / exact) <= 1e-10
