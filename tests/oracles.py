"""Independent reference solvers the tests compare the package against.

The package materialises every steady state from the phase-space quadrature
(tegsolve.ivp.HittingTimeQuadrature).  The routes here integrate the
transformed problem instead,

    u'' + rho_hat(u) = 0,   u(0) = u_h,  u'(0) = theta,   rho_hat = rho o K^{-1},

with T carried alongside (u, w = u') so the right-hand side never inverts K:
dT/dy = w / kappa(T) keeps u = K(T) consistent to integration accuracy.  They
share no code with the quadrature, which makes them oracles for it:

* integrate_ivp: adaptive RK45 with event detection at the hitting time y_c;
* integrate_fixed_step: classical RK4 with a controlled step, for order studies;
* shooting_integral: \\int_0^{y_c} rho dy along an RK45 trajectory;
* H_of_theta_ivp: the fixed-load constraint with y_c from RK45;
* clamped_hitting_time, clamped_H, clamped_profile_u: the exact y_c(theta),
  H(theta) and u(y) of the clamped-resistivity leg (constant kappa,
  rho_hat(u) = rho_hat_h + M_hat (u - u_h) for u >= u_h, constant below),
  whose trajectory is a trigonometric arc above u_h glued to a parabola;
* steep_table_rho, steep_hitting_time: a leg whose rho falls steeply above
  T_h and its exact y_c(theta), a hyperbolic arc glued to parabolas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from tegsolve.analytic import GeneratorSpec, shooting_function
from tegsolve.errors import DegenerateError, NumericalBlowup, TegError, ZeroVoltage
from tegsolve.materials import rho_kappa_integral

TOL_ODE = 1e-10     # rtol for the adaptive integrator
TOL_EVENT = 1e-12   # |u(y_c) - u_c| target, scaled by max(1, |u_c|)
TOL_ETA = 1e-6      # closed-form vs flux-ratio efficiency agreement
TOL_ENERGY = 1e-8   # energy identity, relative to max(1, theta^2 + 2r)


@dataclass(frozen=True, eq=False)
class UTrajectory:
    """Solution samples of the transformed initial value problem.

    y, u, u_y, T are the adaptive integrator steps; u is concave, w = u_y is
    nonincreasing, and the trajectory terminates at the unique y_c where
    u = u_c.  y_peak (the turning point w = 0) exists iff theta > 0.  The
    running resistivity integral \\int_0^y rho(T) dy is carried as an extra
    error-controlled state.
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
            w = rho_kappa_integral(spec.pair, spec.T_h, T_try)
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
    Raises NumericalBlowup if the crossing is not reached or the polish does
    not converge.
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


def H_of_theta_ivp(prob, theta: float) -> float:
    """H(theta) = I(theta) + S_load * y_c(theta) with y_c re-detected by the
    adaptive integrator, as a check on the quadrature route."""
    if prob.spec.V == 0:
        raise ZeroVoltage("H(theta) needs V != 0")
    I = shooting_function(prob.spec, theta)
    if prob.S_load == 0.0:
        return I
    return I + prob.S_load * integrate_ivp(prob.spec, theta).y_c


def clamped_hitting_time(rho_hat_h: float, M_hat: float, delta_u: float,
                         theta: float) -> float:
    """Exact y_c(theta) for the clamped profile."""
    disc = math.sqrt(theta * theta + 2.0 * rho_hat_h * delta_u)
    if theta <= 0:
        return (theta + disc) / rho_hat_h
    sq = math.sqrt(M_hat)
    return 2.0 / sq * math.atan(sq * theta / rho_hat_h) + (disc - theta) / rho_hat_h


def clamped_H(rho_hat_h: float, M_hat: float, delta_u: float, S_load: float,
              theta: float) -> float:
    """Exact H(theta) for the clamped profile (r = rho_hat_h * delta_u)."""
    I = theta + math.sqrt(theta * theta + 2.0 * rho_hat_h * delta_u)
    return I + S_load * clamped_hitting_time(rho_hat_h, M_hat, delta_u, theta)


STEEP_DELTA = 1e-13  # the table knot just above T_h = 2


def steep_table_rho(rho_e: float):
    """rho = table [(1, 1), (2 + STEEP_DELTA, 1), (3, rho_e)]: 1 up to just
    above T_h = 2, then a ramp down to rho_e at 3 K, rho_e above."""
    from tegsolve.materials import Table
    return Table([(1.0, 1.0), (2.0 + STEEP_DELTA, 1.0), (3.0, rho_e)])


def steep_hitting_time(rho_e: float, theta: float) -> float:
    """Exact y_c(theta >= sqrt(2 W(3))) for kappa = 1, steep_table_rho(rho_e),
    T_c 1 and T_h 2, where u = T and w' = -rho.

    On a constant-rho part the time is the drop in w over rho.  On the ramp
    rho = -a v, v = T - T*, with T* = 3 + rho_e / a where the ramp would
    reach 0, so w^2 = E + a v^2 and the time is
    (asinh(sqrt(a / E) v_1) - asinh(sqrt(a / E) v_0)) / sqrt(a).  The
    descent below T_h takes 2 / (theta + sqrt(theta^2 + 2)), r being 1."""
    d = STEEP_DELTA
    a = (1.0 - rho_e) / (1.0 - d)
    w_a = math.sqrt(theta * theta - 2.0 * d)              # at 2 + d
    w_3 = math.sqrt(theta * theta - 2.0 * (d + 0.5 * (1.0 - d) * (1.0 + rho_e)))
    E = w_a * w_a - 1.0 / a                                # w^2 - a v^2 on the ramp
    c = math.sqrt(a / E)
    v_0, v_1 = -1.0 / a, -rho_e / a
    up = (2.0 * d / (theta + w_a)
          + (math.asinh(c * v_1) - math.asinh(c * v_0)) / math.sqrt(a)
          + w_3 / rho_e)
    return 2.0 * up + 2.0 / (theta + math.sqrt(theta * theta + 2.0))


def clamped_profile_u(u_h: float, rho_hat_h: float, M_hat: float,
                      theta: float, y) -> np.ndarray:
    """Exact u(y) for the clamped profile: trig arc then parabola."""
    y = np.asarray(y, dtype=float)
    if theta <= 0:
        return u_h + theta * y - 0.5 * rho_hat_h * y * y
    sq = math.sqrt(M_hat)
    y0 = math.atan(sq * theta / rho_hat_h) / sq
    trig = (u_h + rho_hat_h / M_hat * (np.cos(sq * y) - 1.0)
            + theta / sq * np.sin(sq * y))
    s = y - 2.0 * y0
    para = u_h - theta * s - 0.5 * rho_hat_h * s * s
    return np.where(y <= 2.0 * y0, trig, para)
