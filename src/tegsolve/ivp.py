"""Trajectory solver for the transformed heat balance.

With u = K(T) and y = |J| x the steady state solves the local problem

    u'' + rho_hat(u) = 0,   u(0) = u_h,  u'(0) = theta,   rho_hat = rho o K^{-1},

and the physical profile is recovered from the unique hitting time y_c where
u = u_c:  x = (L / y_c) y,  T = K^{-1}(u),  |J| = y_c / L.  The integrator
carries T alongside (u, w = u') so the right-hand side never inverts K:
dT/dy = w / kappa(T) keeps u = K(T) consistent to integration accuracy.

Two independent hitting-time routes are provided: adaptive RK45 with event
detection (authoritative, produces profiles), and a phase-space quadrature
based on the energy identity w^2 = theta^2 - 2 \\int_{T_h}^{T} rho kappa dT
(fast, used by load-resistance scans and as a cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .analytic import GeneratorSpec, matched_initial_slope
from .errors import (
    DegenerateError,
    DomainError,
    NonPositiveHotFlux,
    NumericalBlowup,
    TegError,
)
from .materials import _ret

TOL_ODE = 1e-10     # rtol for the adaptive integrator
TOL_EVENT = 1e-12   # |u(y_c) - u_c| target, scaled by max(1, |u_c|)
TOL_BVP = 1e-8      # absolute boundary-temperature tolerance
TOL_ETA = 1e-6      # closed-form vs flux-ratio efficiency agreement
TOL_ENERGY = 1e-8   # energy identity, relative to max(1, theta^2 + 2r)
N_OUT = 256         # output grid intervals for reconstructed profiles
_Y_C_CHUNK = 64     # theta per y_c array pass: bounds memory for any scan length
_W_GL_ORDER = 8     # GL nodes per W-grid segment: exact for rho*kappa of degree <= 15


@dataclass(frozen=True, eq=False)
class UTrajectory:
    """Solution samples of the transformed initial value problem.

    samples are the adaptive integrator steps; u is concave, w = u_y is
    nonincreasing, and the trajectory terminates at the unique y_c where
    u = u_c.  y_peak (the turning point w = 0) exists iff theta > 0.  The
    running resistivity integral \\int_0^y rho(T) dy is carried as an extra
    error-controlled state, read back by the reconstruction.
    """

    theta: float
    y: np.ndarray
    u: np.ndarray
    u_y: np.ndarray
    T: np.ndarray
    y_c: float
    y_peak: float | None
    _dense: object = field(repr=False)

    def at(self, y):
        """Dense-output evaluation: (u, u_y, T) at the given y values."""
        vals = self._dense(np.asarray(y, dtype=float))
        return vals[0], vals[1], vals[2]

    def constraint_at(self, y) -> float:
        """Running integral \\int_0^y rho(T(s)) ds from the integrated state."""
        return float(self._dense(float(y))[3])


def _rhs_factory(spec: GeneratorSpec):
    kappa_v = spec.pair.kappa.value
    rho_v = spec.pair.rho.value
    T_c = spec.T_c

    def rhs(y, s):
        T = s[2]
        if T < T_c:
            T = T_c  # flat extension below the cold end; stages may overshoot
        k = kappa_v(T)
        r = rho_v(T)
        if k <= 0 or r <= 0:
            raise NumericalBlowup(
                f"material property non-positive at T={T}; model violates "
                "the positivity assumptions"
            )
        return (s[1], -r, s[1] / k, r)

    return rhs


def _reachable_peak_T(spec: GeneratorSpec, theta: float) -> float:
    """Upper bound on the temperature the trajectory can reach.

    For theta > 0 the energy identity caps the peak at the temperature where
    2 \\int_{T_h}^{T} rho kappa dT = theta^2; found by doubling.
    """
    if theta <= 0:
        return spec.T_h
    target = 0.5 * theta * theta
    step = max(spec.delta_T, 1e-3 * spec.T_h)
    T = spec.T_h
    for _ in range(200):
        T_try = spec.T_h + step
        try:
            w = spec.coupling_from_hot(T_try)
        except TegError as exc:
            raise NumericalBlowup(
                f"coupling integral not evaluable up to T={T_try}: {exc}"
            ) from exc
        T = T_try
        if w >= target:
            return T
        step *= 2.0
    raise NumericalBlowup(
        "coupling integral does not reach theta^2/2; the divergence "
        "assumption on rho*kappa appears violated"
    )


def _rho_lower_bound(spec: GeneratorSpec, T_top: float) -> float:
    probes = np.linspace(spec.T_c, T_top, 129)
    kinks = [t for t in spec.pair.rho.kinks() if spec.T_c < t < T_top]
    if kinks:
        probes = np.concatenate([probes, kinks])
    vals = np.asarray(spec.pair.rho.value(probes), dtype=float)
    m = float(vals.min())
    if m <= 0:
        raise NumericalBlowup("rho non-positive on the reachable range")
    return 0.5 * m  # sampled minimum, halved as a safety margin


def integrate_ivp(spec: GeneratorSpec, theta: float, *,
                  tol_ode: float = TOL_ODE,
                  tol_event: float = TOL_EVENT) -> UTrajectory:
    """Integrate the transformed problem until u = u_c.

    The stopping point is located by event detection on the dense output and
    polished by Newton steps to |u(y_c) - u_c| <= tol_event * max(1, |u_c|).
    Raises NumericalBlowup if the crossing is not reached (impossible for
    materials satisfying the positivity/divergence assumptions).
    """
    if spec.delta_T <= 0:
        raise DegenerateError("integrate_ivp needs T_h > T_c")
    u_h, u_c = spec.u_h, spec.u_c
    du = u_h - u_c

    T_top = _reachable_peak_T(spec, theta)
    rho_lb = _rho_lower_bound(spec, T_top)
    y_max = (max(theta, 0.0) + math.sqrt(theta * theta + 2.0 * rho_lb * du)) / rho_lb

    rhs = _rhs_factory(spec)

    def hit(y, s):
        return s[0] - u_c

    hit.terminal = True
    hit.direction = -1

    def peak(y, s):
        return s[1]

    peak.terminal = False
    peak.direction = -1

    w_scale = max(1.0, abs(theta), math.sqrt(theta * theta + 2.0 * spec.rk))
    # the constraint integral tops out at I(theta) <= 2 * w_scale
    atol = 1e-2 * tol_ode * np.array([
        max(1.0, u_h), w_scale, max(1.0, spec.T_h), w_scale,
    ])

    sol = None
    for stretch in (1.02, 8.0):
        try:
            sol = solve_ivp(
                rhs, (0.0, stretch * y_max), [u_h, theta, spec.T_h, 0.0],
                method="RK45", rtol=tol_ode, atol=atol,
                events=[hit, peak], dense_output=True,
            )
        except TegError as exc:
            raise NumericalBlowup(f"integration failed: {exc}") from exc
        if sol.status == 1:
            break
    if sol.status != 1:
        raise NumericalBlowup(
            f"no cold-side crossing within y <= {8.0 * y_max:.3g} "
            f"(integrator status {sol.status})"
        )

    # polish the event location on the dense output
    y_c = float(sol.t_events[0][0])
    scale = max(1.0, abs(u_c))
    for _ in range(60):
        u_val, w_val = sol.sol(y_c)[:2]
        err = u_val - u_c
        if abs(err) <= tol_event * scale:
            break
        y_c -= err / w_val
    else:
        raise NumericalBlowup("event polish did not converge")

    y_peak = None
    if theta > 0 and len(sol.t_events[1]):
        y_p = float(sol.t_events[1][0])
        rho_v = spec.pair.rho.value
        for _ in range(60):
            _, w_val, T_val = sol.sol(y_p)[:3]
            if abs(w_val) <= tol_event * w_scale:
                break
            y_p += w_val / rho_v(max(T_val, spec.T_c))
        y_peak = y_p

    mask = sol.t <= y_c
    ys = np.append(sol.t[mask], y_c)
    states = np.column_stack([sol.y[:, mask], sol.sol(y_c)])
    return UTrajectory(
        theta=theta, y=ys, u=states[0], u_y=states[1], T=states[2],
        y_c=y_c, y_peak=y_peak, _dense=sol.sol,
    )


def shooting_integral(traj: UTrajectory, spec: GeneratorSpec) -> float:
    """Trajectory-integrated nonlocal constraint \\int_0^{y_c} rho_hat(u) dy.

    Independent oracle for the closed-form shooting function: integrates the
    resistivity along the dense output instead of using the energy identity.
    """
    rho_v = spec.pair.rho.value
    T_c = spec.T_c

    def integrand(y):
        T = traj.at(y)[2]
        return rho_v(T if T >= T_c else T_c)

    scale = abs(rho_v(spec.T_h)) * max(traj.y_c, 1e-30)
    val, _ = quad(integrand, 0.0, traj.y_c,
                  epsabs=max(1e-300, 1e-13 * scale), epsrel=1e-12, limit=400)
    return val


@dataclass(frozen=True, eq=False)
class TemperatureSolution:
    """Reconstructed physical profile with its electrical state.

    grid columns x, T, q are equally spaced in x; J is signed like V and
    satisfies |J| = y_c / L; R_total includes the external load; eta_numeric
    is the flux-ratio efficiency (q_h - q_c) / q_h.
    """

    x: np.ndarray
    T: np.ndarray
    q: np.ndarray
    theta: float
    y_c: float
    J: float
    R_total: float
    q_h: float
    q_c: float
    eta_numeric: float
    gamma: float | None = None
    R_load: float | None = None
    trajectory: UTrajectory | None = field(default=None, repr=False)


def _materialize(spec: GeneratorSpec, traj: UTrajectory, *,
                 gamma: float | None = None, R_load: float | None = None,
                 n_out: int = N_OUT) -> TemperatureSolution:
    y_c = traj.y_c
    absJ = y_c / spec.L
    J = math.copysign(absJ, spec.V)
    x = np.linspace(0.0, spec.L, n_out + 1)
    u, w, T = traj.at(x * (y_c / spec.L))

    # internal resistance from the integrated resistivity along the profile:
    # int_0^L rho(T(x)) dx = (L / y_c) * int_0^{y_c} rho dy
    I_num = traj.constraint_at(y_c)
    R_int = spec.L * I_num / (y_c * spec.A_c)
    if R_load is None:
        R_total = (1.0 + gamma) * R_int
    else:
        R_total = R_int + R_load

    q = -w * absJ + spec.alpha0 * T * J
    q_h, q_c = float(q[0]), float(q[-1])
    eta = (q_h - q_c) / q_h
    return TemperatureSolution(
        x=x, T=np.asarray(T, dtype=float), q=np.asarray(q, dtype=float),
        theta=traj.theta, y_c=y_c, J=J, R_total=R_total,
        q_h=q_h, q_c=q_c, eta_numeric=eta,
        gamma=gamma, R_load=R_load, trajectory=traj,
    )


def _k_linear_solution(spec: GeneratorSpec, gamma: float,
                       n_out: int) -> TemperatureSolution:
    """Zero-voltage branch: (K(T))'' = 0, so K(T) is affine in x and J = 0."""
    x = np.linspace(0.0, spec.L, n_out + 1)
    u = spec.u_h + (spec.u_c - spec.u_h) * (x / spec.L)
    T = np.array([spec.K.inverse(min(max(ui, spec.u_c), spec.u_h)) for ui in u])
    q = np.full_like(x, (spec.u_h - spec.u_c) / spec.L)

    def rho_on_line(xx):
        ui = spec.u_h + (spec.u_c - spec.u_h) * (xx / spec.L)
        return spec.pair.rho.value(spec.K.inverse(min(max(ui, spec.u_c), spec.u_h)))

    if spec.delta_T == 0:
        R_int = spec.pair.rho.value(spec.T_c) * spec.L / spec.A_c
    else:
        scale = abs(spec.pair.rho.value(spec.T_m)) * spec.L
        val, _ = quad(rho_on_line, 0.0, spec.L,
                      epsabs=max(1e-300, 1e-13 * scale), epsrel=1e-11, limit=200)
        R_int = val / spec.A_c
    return TemperatureSolution(
        x=x, T=T, q=q, theta=(spec.u_c - spec.u_h) / spec.L, y_c=0.0, J=0.0,
        R_total=(1.0 + gamma) * R_int, q_h=float(q[0]), q_c=float(q[-1]),
        eta_numeric=0.0, gamma=gamma,
    )


def solve_ratio_mode(spec: GeneratorSpec, gamma: float, *,
                     tol_ode: float = TOL_ODE,
                     n_out: int = N_OUT) -> TemperatureSolution:
    """Unique steady state at load ratio gamma >= 0.

    V = 0 returns the explicit profile affine in K with J = 0; otherwise the
    matched initial slope is integrated and rescaled to [0, L].  A pass must
    meet |J - V/(R_total A_c)| <= tol_bvp * |J| and bound the efficiency error
    of its cold-end temperature, |alpha0 J (T(L) - T_c)| <= 0.1 TOL_ETA |q_h|;
    else it is retried at a tighter integrator tolerance (global error can
    reach ~100x the local tolerance on kelvin-scale problems).
    """
    if not 0 <= gamma < math.inf:
        raise DomainError(f"load ratio must be finite and >= 0, got {gamma}")
    if spec.V == 0:
        return _k_linear_solution(spec, gamma, n_out)
    theta = matched_initial_slope(spec, gamma)
    sol = None
    for attempt_tol in (tol_ode, 1e-2 * tol_ode, 1e-4 * tol_ode):
        traj = integrate_ivp(spec, theta, tol_ode=max(attempt_tol, 1e-13))
        sol = _materialize(spec, traj, gamma=gamma, n_out=n_out)
        resid = abs(sol.J - spec.V / (sol.R_total * spec.A_c))
        cold = abs(spec.alpha0 * sol.J * (float(sol.T[-1]) - spec.T_c))
        if (resid <= max(TOL_BVP * abs(sol.J), 1e4 * TOL_EVENT)
                and cold <= 0.1 * TOL_ETA * abs(sol.q_h)):
            return sol
    raise NumericalBlowup(f"current residual {resid:.3e} or cold-end eta error "
                          f"{cold / sol.q_h:.3e} persists at the tightest tolerance")


def numeric_efficiency(sol: TemperatureSolution) -> float:
    """Flux-ratio efficiency (q_h - q_c) / q_h of a reconstructed solution.

    Zero current generates nothing and returns 0.  A non-positive hot-side
    flux is reported, not clamped: it flags a regime where the device heats
    the hot reservoir and the ratio is meaningless.
    """
    if sol.J == 0:
        return 0.0
    if sol.q_h <= 0:
        raise NonPositiveHotFlux(f"hot-side flux q_h={sol.q_h} is not positive")
    return (sol.q_h - sol.q_c) / sol.q_h


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise defect of a reconstructed profile against the local model."""

    h: float
    ode_residual: float          # max |d2K/dx2 + rho J^2| via second differences
    boundary_error_hot: float    # |T(0) - T_h|
    boundary_error_cold: float   # |T(L) - T_c|
    nonlocal_residual: float     # |J - V/(R_total A_c)|


def _k_values(spec: GeneratorSpec, T) -> np.ndarray:
    """K at profile temperatures, tolerating event-level undershoot of T_c."""
    T = np.asarray(T, dtype=float)
    order = np.argsort(T)
    out = np.empty_like(T)
    prev_T, prev_u = spec.T_c, spec.T_c
    for idx in order:
        t = float(T[idx])
        prev_u = prev_u + spec.pair.kappa.integral(prev_T, t)
        prev_T = t
        out[idx] = prev_u
    return out


def verify_solution(sol: TemperatureSolution, spec: GeneratorSpec) -> ResidualReport:
    """Residual report for a solution: ODE defect in K-space on the uniform
    grid, boundary mismatches, and the nonlocal current constraint."""
    x, T = sol.x, sol.T
    h = float(x[1] - x[0])
    K = _k_values(spec, T)
    rho = np.asarray(spec.pair.rho.value(np.maximum(T, spec.T_c)), dtype=float)
    second = (K[:-2] - 2.0 * K[1:-1] + K[2:]) / (h * h)
    ode_residual = float(np.max(np.abs(second + rho[1:-1] * sol.J ** 2)))
    if sol.R_total > 0:
        nonlocal_residual = abs(sol.J - spec.V / (sol.R_total * spec.A_c))
    else:
        nonlocal_residual = abs(sol.J)
    return ResidualReport(
        h=h,
        ode_residual=ode_residual,
        boundary_error_hot=abs(float(T[0]) - spec.T_h),
        boundary_error_cold=abs(float(T[-1]) - spec.T_c),
        nonlocal_residual=nonlocal_residual,
    )


def integrate_fixed_step(spec: GeneratorSpec, theta: float, y_end: float,
                         n_steps: int):
    """Classical fixed-step RK4 on the same system; convergence-study oracle.

    Returns the state (u, w, T) at y_end.  Kept deliberately simple and
    independent of the adaptive route so order-of-accuracy checks have a
    controlled step size.
    """
    rhs = _rhs_factory(spec)
    h = y_end / n_steps
    s = np.array([spec.u_h, theta, spec.T_h, 0.0], dtype=float)
    y = 0.0
    for _ in range(n_steps):
        k1 = np.asarray(rhs(y, s))
        k2 = np.asarray(rhs(y + 0.5 * h, s + 0.5 * h * k1))
        k3 = np.asarray(rhs(y + 0.5 * h, s + 0.5 * h * k2))
        k4 = np.asarray(rhs(y + h, s + h * k3))
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y += h
    return s[0], s[1], s[2]


@lru_cache(maxsize=8)
def _gauss_legendre(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


class HittingTimeQuadrature:
    """Hitting time y_c(theta) from the phase-space energy identity.

    Along a trajectory the slope w = u_y decreases monotonically, and
    w^2 = theta^2 - 2 W(T) with W(T) = \\int_{T_h}^{T} rho kappa dT, so

        y_c(theta) = \\int_{w_c}^{theta} dw / rho(W^{-1}((theta^2 - w^2)/2)),
        w_c = -sqrt(theta^2 + 2 r).

    The integrand is bounded and piecewise-analytic; panelwise Gauss-Legendre
    with splits at the w-images of rho/kappa kinks gives near machine
    precision at a fraction of the cost of an ODE solve.  The inverse of W is
    cached as a Hermite spline on a kink-aware grid with node values from
    8-point Gauss-Legendre per segment and exact node derivatives
    dT/dW = 1/(rho kappa); kinks sit on nodes, so every segment is smooth and
    every spline interval O(h^4).  A theta beyond the grid appends blocks of
    n_base nodes above it, so earlier nodes never move.
    """

    def __init__(self, spec: GeneratorSpec, *, gl_order: int = 80,
                 n_base: int = 8193):
        if spec.delta_T <= 0:
            raise DegenerateError("hitting-time quadrature needs T_h > T_c")
        self.spec = spec
        self.gl_order = gl_order
        self.n_base = n_base
        self.r = spec.rk
        self._T_top = spec.T_h + max(2.0 * spec.delta_T, 1e-3 * spec.T_h)
        self._build()

    def _build(self):
        spec = self.spec
        grid, W = self._w_block(spec.T_c, self._T_top, 0.0)
        W -= W[int(np.searchsorted(grid, spec.T_h))]  # anchor W(T_h) = 0
        self._grid_T = grid
        self._grid_W = W
        self._fit()

    def _w_block(self, lo: float, hi: float, W_lo: float):
        """Nodes on [lo, hi] (n_base uniform plus the kinks and T_h inside)
        and W on them, counted from W(lo) = W_lo: one array pass of
        fixed-order Gauss-Legendre over every segment."""
        pair = self.spec.pair
        splits = [t for m in (pair.kappa, pair.rho) for t in m.kinks()] + [self.spec.T_h]
        grid = np.unique(np.concatenate(
            [np.linspace(lo, hi, self.n_base), [t for t in splits if lo < t < hi]]))
        nodes, weights = _gauss_legendre(_W_GL_ORDER)
        half = 0.5 * np.diff(grid)
        T = half[:, None] * nodes + (0.5 * (grid[:-1] + grid[1:]))[:, None]
        f = pair.kappa.value(T) * pair.rho.value(T)
        W = W_lo + np.concatenate([[0.0], np.cumsum(half * (f @ weights))])
        stall = np.flatnonzero(~(np.diff(W) > 0))
        if stall.size:
            raise NumericalBlowup(
                f"coupling integral stops growing at T={grid[stall[0]]:.6g}; "
                "the divergence assumption on rho*kappa appears violated"
            )
        return grid, W

    def _fit(self):
        """Hermite spline of W^{-1} and the W-images of the kinks."""
        pair, grid, W = self.spec.pair, self._grid_T, self._grid_W
        dTdW = 1.0 / (np.asarray(pair.kappa.value(grid), dtype=float)
                      * np.asarray(pair.rho.value(grid), dtype=float))
        self._inv = CubicHermiteSpline(W, grid, dTdW, extrapolate=False)
        kk = [t for m in (pair.kappa, pair.rho) for t in m.kinks()]
        self._kink_q = sorted({
            float(W[int(np.searchsorted(grid, t))]) for t in kk
            if grid[0] < t < grid[-1]
        })

    def _ensure(self, q_max: float):
        """Append blocks until W reaches q_max; on failure nothing changes."""
        T_top, grid, W = self._T_top, self._grid_T, self._grid_W
        if W[-1] >= q_max:
            return
        for _ in range(120):
            lo, T_top = T_top, self.spec.T_h + 2.0 * (T_top - self.spec.T_h)
            g, w = self._w_block(lo, T_top, float(W[-1]))
            grid, W = np.concatenate([grid, g[1:]]), np.concatenate([W, w[1:]])
            if W[-1] >= q_max:
                self._T_top, self._grid_T, self._grid_W = T_top, grid, W
                self._fit()
                return
        raise NumericalBlowup(
            "coupling integral does not cover the requested energy range; "
            "the divergence assumption on rho*kappa appears violated"
        )

    def y_c(self, theta):
        """Hitting time where the trajectory reaches the cold-side value: a
        float for scalar theta, else an array of theta's shape."""
        theta = np.asarray(theta, dtype=float)
        flat = theta.ravel()
        top = flat.max(initial=0.0)
        if np.isnan(top):
            raise DomainError("y_c needs theta values that are not NaN")
        if top > 0:
            self._ensure(0.5 * top * top)
        out = np.empty_like(flat)
        for i in range(0, flat.size, _Y_C_CHUNK):
            out[i:i + _Y_C_CHUNK] = self._y_c_chunk(flat[i:i + _Y_C_CHUNK])
        return _ret(out.reshape(theta.shape))

    def _y_c_chunk(self, theta: np.ndarray) -> np.ndarray:
        """Panelwise GL integral of 1 / rho(T(w)) over [w_c, theta] per theta.

        Panels split at w_c, theta, w = 0 and -theta (theta > 0) and the
        w-images of rho/kappa kinks, each cut into min(8, ceil(width / (span /
        4))) equal sub-intervals.  Absent split points are set to theta, so
        after sorting they become zero-width panels, which get no nodes.
        """
        nodes, weights = _gauss_legendre(self.gl_order)
        tt = theta * theta
        w_lo = -np.sqrt(tt + 2.0 * self.r)
        up = theta > 0
        cols = [w_lo, theta, np.where(up, 0.0, theta), np.where(up, -theta, theta)]
        for q_k in self._kink_q:
            w2 = tt - 2.0 * q_k
            w_k = np.sqrt(np.maximum(w2, 0.0))
            for cand in (-w_k, w_k):
                inside = (w2 > 0) & (w_lo < cand) & (cand < theta)
                cols.append(np.where(inside, cand, theta))
        pts = np.sort(np.column_stack(cols), axis=1)
        lo, width, span = pts[:, :-1], np.diff(pts, axis=1), pts[:, -1:] - pts[:, :1]
        n_sub = np.where(width > 0, np.clip(np.ceil(width / (0.25 * span + 1e-300)),
                                            1, 8), 0).astype(np.intp).ravel()
        owner = np.repeat(np.arange(theta.size).repeat(width.shape[1]), n_sub)
        # sub-interval edges exactly as np.linspace(lo, hi, n + 1) places them
        k = np.repeat(n_sub, n_sub)
        j = np.arange(k.size) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
        a0 = np.repeat(lo.ravel(), n_sub)
        step = np.repeat(width.ravel(), n_sub) / k
        a = j * step + a0
        b = np.where(j + 1 == k, np.repeat(pts[:, 1:].ravel(), n_sub),
                     (j + 1) * step + a0)
        half = 0.5 * (b - a)
        w = half[:, None] * nodes + (0.5 * (a + b))[:, None]
        q = np.clip(0.5 * (tt[owner][:, None] - w * w),
                    self._grid_W[0], self._grid_W[-1])
        inv_rho = 1.0 / self.spec.pair.rho.value(self._inv(q))
        return np.bincount(owner, weights=half * (inv_rho @ weights),
                           minlength=theta.size)
