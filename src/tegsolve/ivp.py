"""Steady states of the transformed heat balance from one phase-space quadrature.

With u = K(T) and y = |J| x the steady state solves the local problem

    u'' + rho_hat(u) = 0,   u(0) = u_h,  u'(0) = theta,   rho_hat = rho o K^{-1},

and the physical profile follows from the unique hitting time y_c where
u = u_c:  x = (L / y_c) y,  |J| = y_c / L.  No ODE is integrated.  The slope
w = u_y falls monotonically from theta to w_c = -sqrt(theta^2 + 2r), and the
energy identity

    w^2 = theta^2 - 2 W(T),   W(T) = \\int_{T_h}^{T} rho kappa dT,

fixes T as a function of w alone.  In the drop s = theta - w, which runs
from 0 at the hot end to I(theta) = theta - w_c at the cold end,

    W(T) = q(s) = s (2 theta - s) / 2,
    y(s) = \\int_0^s ds' / rho(T(s')),   y_c = y(I(theta)),
    \\int_0^{y_c} rho dy = I(theta),

so the hitting time, the profile and the internal resistance all come from
one quadrature (HittingTimeQuadrature).  Neither q(s) nor I(theta)
cancels for theta <= 0, however far theta lies below -sqrt(2r).  Every
trajectory ends with the same descent from T_h to T_c, where
p = sqrt(-2 W(T)) runs from 0 to sqrt(2r) and ds = p dp / sqrt(theta^2 + p^2):

    y_c(theta) = C(|theta|) + [theta > 0] 2 \\int_0^theta ds / rho(T(s)),
    C(tau) = \\int_0^{sqrt(2r)} p dp / (rho(T(p)) sqrt(tau^2 + p^2)).

The excursion above T_h is smooth in the turning-point angle phi, where
sqrt(2 q) = theta sin(phi) and s = theta (1 - cos(phi)).  A profile runs over
the same panels: phi from 0 to pi, then p from 0 to sqrt(2r).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .analytic import GeneratorSpec, matched_initial_slope, shooting_function
from .errors import (
    DegenerateError,
    DomainError,
    NonPositiveHotFlux,
    NumericalBlowup,
)
from .materials import _ret, gauss_legendre_on, segment_integrals, segment_nodes

N_OUT = 256         # output grid intervals for reconstructed profiles
_Y_C_CHUNK = 64     # theta per y_c array pass: bounds memory for any scan length
_PROFILE_INTERVALS = 1024  # sub-intervals behind one profile, shared out by width in s
_PROFILE_GL_ORDER = 16     # Gauss-Legendre nodes per sub-interval of a profile
_N_BASE = 8193     # uniform nodes per W^-1 grid block
_DESCENT_GL_ORDER = 24  # Gauss-Legendre nodes per sub-interval of the descent in p
_DESCENT_LEVELS = 16    # panels [P 4^-k-1, P 4^-k] graded toward p = 0
_EXCURSION_GL_ORDER = 16  # Gauss-Legendre nodes per panel of the excursion in phi
_EXCURSION_LEVELS = 4     # panels graded by 1/4 toward phi = 0
_KINK_LEVELS = 6          # panels graded by 1/4 toward a kink above T_h
_THETA_MAX = math.sqrt(np.finfo(float).max)  # the largest |theta| with a finite square


class _Rule(NamedTuple):
    """Sub-panel ends on [0, 1] and the Gauss-Legendre nodes and weights on them."""

    ends: np.ndarray
    x: np.ndarray
    w: np.ndarray


def _graded(levels: int) -> _Rule:
    """The rule on the sub-panels [4^-k-1, 4^-k], k < levels, and [0, 4^-levels]."""
    ends = np.array([0.0] + [0.25 ** k for k in range(levels, -1, -1)])
    x, half, w = gauss_legendre_on(ends[:-1], ends[1:], _EXCURSION_GL_ORDER)
    return _Rule(ends, x.ravel(), np.outer(half, w).ravel())


def _two_sided(lo: int, hi: int) -> _Rule:
    """_graded(lo) on [0, 1/2] and _graded(hi) mirrored onto [1/2, 1]."""
    a, b = _graded(lo), _graded(hi)
    return _Rule(np.concatenate([0.5 * a.ends, 1.0 - 0.5 * b.ends[-2::-1]]),
                 np.concatenate([0.5 * a.x, 1.0 - 0.5 * b.x[::-1]]),
                 np.concatenate([0.5 * a.w, 0.5 * b.w[::-1]]))


# the excursion's rule on [0, pi/2] for a row that reaches no kink above T_h,
# graded toward phi = 0: sin(phi) and the weights times sin(phi) on its nodes
_GRADED = _graded(_EXCURSION_LEVELS)
_PHI_SIN = np.sin(0.5 * np.pi * _GRADED.x)
_PHI_WSIN = 0.5 * np.pi * _GRADED.w * _PHI_SIN
# rules on [0, 1] for the panels of a row cut at kinks: the first one ends
# at phi = 0 and a kink, the middle ones at two kinks, the last one at a kink
# and the turning point phi = pi/2, which is smooth in phi
_FIRST = _two_sided(_EXCURSION_LEVELS, _KINK_LEVELS)
_MIDDLE = _two_sided(_KINK_LEVELS, _KINK_LEVELS)
_LAST = _two_sided(_KINK_LEVELS, 0)


@dataclass(frozen=True, eq=False)
class TemperatureSolution:
    """Reconstructed physical profile with its electrical state.

    grid columns x, T, q are equally spaced in x; J is signed like V and
    satisfies |J| = y_c / L; R_total includes the external load.
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
    gamma: float | None = None
    R_load: float | None = None

    @property
    def eta_numeric(self) -> float:
        """Flux-ratio efficiency (q_h - q_c) / q_h.

        Zero current generates nothing and gives 0.  A non-positive hot-side
        flux is reported, not clamped: it flags a regime where the device
        heats the hot reservoir and the ratio is meaningless.
        """
        if self.J == 0:
            return 0.0
        if self.q_h <= 0:
            raise NonPositiveHotFlux(f"hot-side flux q_h={self.q_h} is not positive")
        return (self.q_h - self.q_c) / self.q_h


def _check_n_out(n_out: int) -> None:
    if not n_out >= 1:
        raise DomainError(f"a profile needs n_out >= 1 output intervals, got {n_out}")


def _k_linear_solution(spec: GeneratorSpec, gamma: float,
                       n_out: int) -> TemperatureSolution:
    """Zero-voltage branch: (K(T))'' = 0, so K(T) is affine in x and J = 0.

    T = K^{-1}(u) is a cubic Hermite spline on the nodes of K with the exact
    slope dT/du = 1 / kappa, and R_int = L r / ((u_h - u_c) A_c), because
    dx = L kappa dT / (u_h - u_c) along the profile.
    """
    _check_n_out(n_out)
    x = np.linspace(0.0, spec.L, n_out + 1)
    if spec.delta_T == 0:
        T = np.full_like(x, spec.T_c)
        R_int = spec.pair.rho.value(spec.T_c) * spec.L / spec.A_c
    else:
        grid, K = spec.K_table(spec.T_h)
        K_inv = CubicHermiteSpline(K, grid, 1.0 / spec.pair.kappa.value(grid))
        T = K_inv(np.linspace(spec.u_h, spec.u_c, n_out + 1))
        R_int = spec.L * spec.rk / ((spec.u_h - spec.u_c) * spec.A_c)
    q = np.full_like(x, (spec.u_h - spec.u_c) / spec.L)
    return TemperatureSolution(
        x=x, T=T, q=q, theta=(spec.u_c - spec.u_h) / spec.L, y_c=0.0, J=0.0,
        R_total=(1.0 + gamma) * R_int, q_h=float(q[0]), q_c=float(q[-1]),
        gamma=gamma,
    )


def solve_ratio_mode(spec: GeneratorSpec, gamma: float, *,
                     n_out: int = N_OUT) -> TemperatureSolution:
    """Unique steady state at load ratio gamma >= 0.

    V = 0 returns the explicit profile affine in K with J = 0; otherwise the
    trajectory of the matched initial slope is materialised by the
    phase-space quadrature and rescaled to [0, L].
    """
    if not 0 <= gamma < math.inf:
        raise DomainError(f"load ratio must be finite and >= 0, got {gamma}")
    if spec.V == 0:
        return _k_linear_solution(spec, gamma, n_out)
    return HittingTimeQuadrature(spec).materialize(
        matched_initial_slope(spec, gamma), gamma=gamma, n_out=n_out)


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise defect of a reconstructed profile against the local model."""

    h: float
    ode_residual: float          # max |d2K/dx2 + rho J^2| via second differences
    boundary_error_hot: float    # |T(0) - T_h|
    boundary_error_cold: float   # |T(L) - T_c|
    nonlocal_residual: float     # |J - V/(R_total A_c)|


def verify_solution(sol: TemperatureSolution, spec: GeneratorSpec) -> ResidualReport:
    """Residual report for a solution: ODE defect in K-space on the uniform
    grid, boundary mismatches, and the nonlocal current constraint."""
    x, T = sol.x, sol.T
    h = float(x[1] - x[0])
    K = spec.K(T)
    rho = np.asarray(spec.pair.rho.value(T), dtype=float)
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


def _subdivide(ends: np.ndarray, share: np.ndarray):
    """The ends a, b of ceil(share[i]) equal sub-intervals of each panel
    [ends[i], ends[i + 1]] (none where share[i] is not positive), placed as
    np.linspace places them, in one array pass."""
    n_sub = np.where(share > 0, np.ceil(share), 0).astype(np.intp)
    k = np.repeat(n_sub, n_sub)
    j = np.arange(k.size) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    a0 = np.repeat(ends[:-1], n_sub)
    step = np.repeat(np.diff(ends), n_sub) / k
    b = np.where(j + 1 == k, np.repeat(ends[1:], n_sub), (j + 1) * step + a0)
    return j * step + a0, b


def _angle_leg(theta: float, phi: np.ndarray, n: int):
    """W and ds/dphi on the excursion at the angles phi in [0, pi], where
    sqrt(2 W) = theta sin(phi), and s = 2 theta sin^2(phi / 2) at phi[n:]."""
    m = theta * np.sin(phi)
    return 0.5 * m * m, m, 2.0 * theta * np.sin(0.5 * phi[n:]) ** 2


def _descent_leg(theta: float, p: np.ndarray, n: int):
    """W and ds/dp on the descent at p = sqrt(-2 W) > 0, and at p[n:] s - s(0)
    = p^2 / (hypot(theta, p) + |theta|), which does not cancel (0 / 0 at p = 0)."""
    h = np.hypot(theta, p)
    return -0.5 * p * p, p / h, p[n:] * (p[n:] / (h[n:] + abs(theta)))


def _squared(theta):
    """theta^2; DomainError for NaN, NumericalBlowup where it would overflow."""
    a = np.abs(theta)
    if np.any(np.isnan(a)):
        raise DomainError("theta must not be NaN")
    if not np.all(a <= _THETA_MAX):
        raise NumericalBlowup("theta^2 is not a finite float")
    return theta * theta


def _stall_error(T: float) -> NumericalBlowup:
    return NumericalBlowup(
        f"coupling integral stops growing at T={T:.6g}; "
        "the divergence assumption on rho*kappa appears violated"
    )


class _WTable(NamedTuple):
    """Everything y_c reads of W^{-1}: published whole, never changed."""

    T: np.ndarray            # nodes, kinks among them
    W: np.ndarray            # W(T) - W(T_h) on the nodes
    inv: CubicHermiteSpline  # T of W, constant above W[-1]
    kink_q: list             # W-images of the rho/kappa kinks inside
    stall: float | None      # the T where W stops growing, if met
    top: float               # top of the last block
    rest: np.ndarray | None  # the first block's nodes above T_h, not yet summed

    def T_of(self, W):
        """W^{-1}(W), W clipped to the table's range."""
        return self.inv(np.clip(W, self.W[0], self.W[-1]))


def _angle_panels(t: _WTable, theta: np.ndarray):
    """The excursion's panels in phi for theta > 0, per number k of kinks
    above T_h a row reaches: its rows, the panel ends 0, phi_k =
    asin(sqrt(2 q_k) / theta) and pi/2 on each row (one row for k = 0), and
    each panel's _Rule: _GRADED for [0, pi/2], else _FIRST, _MIDDLE, _LAST."""
    q_k = np.array(t.kink_q[bisect_right(t.kink_q, 0.0):])
    ratio = np.sqrt(2.0 * q_k) / theta[:, None]  # < 1 where a row reaches q_k
    reached = np.count_nonzero(ratio < 1.0, axis=1)
    for k in np.unique(reached):
        rows = np.flatnonzero(reached == k)
        if k == 0:  # one row of ends serves them all
            yield rows, np.array([[0.0, 0.5 * np.pi]]), [_GRADED]
            continue
        ends = np.column_stack([np.zeros(rows.size), np.arcsin(ratio[rows, :k]),
                                np.full(rows.size, 0.5 * np.pi)])
        yield rows, ends, [_FIRST] + [_MIDDLE] * (k - 1) + [_LAST]


class HittingTimeQuadrature:
    """Hitting time y_c(theta) and steady states from the phase-space energy
    identity of the module docstring.

    y_c(theta) = C(|theta|) + [theta > 0] 2 \\int_0^theta ds / rho(T(s)).  The
    integrand of the descent C, in p, does not depend on theta: its nodes
    and values are built once (_descent), and a theta costs one kernel
    product.  The excursion above T_h is integrated in the turning-point
    angle phi, on fixed nodes graded toward phi = 0 and, where the row
    reaches kinks above T_h, on panels cut at them and graded toward them
    (_excursion).  The inverse
    of W is cached as a Hermite spline on a kink-aware grid with node values
    from 8-point Gauss-Legendre per segment and exact node derivatives
    dT/dW = 1/(rho kappa); kinks sit on nodes, so every segment is smooth and
    every spline interval O(h^4).  The grid is built to T_h, as far as theta
    <= 0 reaches; theta > 0 appends the rest of the first _N_BASE-node block,
    then further blocks, so nodes never move; a block's W is the W at its
    lower end (W(T_h) = 0 for the first block's rest) plus the running sum of
    its segment integrals.  Where W stops growing above T_h the grid ends,
    and only a theta that needs W beyond that end raises NumericalBlowup.
    All of it is one _WTable, replaced whole by each extension.  materialize
    integrates a profile on the panels of _angle_panels and _descent_ends.
    """

    def __init__(self, spec: GeneratorSpec):
        if spec.delta_T <= 0:
            raise DegenerateError("hitting-time quadrature needs T_h > T_c")
        self.spec = spec
        self._table = self._build()

    def _build(self) -> _WTable:
        """The first table: W on the first block's nodes up to T_h, the rest
        of the block left for _reach."""
        spec = self.spec
        top = spec.T_h + max(2.0 * spec.delta_T, 1e-3 * spec.T_h)
        grid = segment_nodes(spec.pair, spec.T_c, top, _N_BASE, extra=(spec.T_h,))
        i_h = int(np.searchsorted(grid, spec.T_h))
        T, W, stall = self._w_block(grid[:i_h + 1], 0.0)
        return self._fit(T, W - W[-1], stall, top, grid[i_h:])

    def _w_block(self, grid, W_0: float):
        """The nodes of grid, W on them (W_0 plus the running sum of their
        rho * kappa segment integrals) and the T where W stops growing, or None.
        A stall ends the block at the last node where rho * kappa > 0 before
        it; NumericalBlowup if that cuts off T_h."""
        pair = self.spec.pair
        seg = segment_integrals(pair.rho_kappa, grid)
        W = W_0 + np.cumsum(np.concatenate([[0.0], seg]))
        stall = np.flatnonzero(~(np.diff(W) > 0))
        if not stall.size:
            return grid, W, None
        T_stall = float(grid[stall[0]])
        bad = np.flatnonzero(~(pair.rho_kappa(grid[:stall[0] + 1]) > 0))
        end = int(bad[0]) if bad.size else stall[0] + 1
        if end == 0 or grid[end - 1] < self.spec.T_h:
            raise _stall_error(T_stall)
        return grid[:end], W[:end], T_stall

    def _fit(self, T, W, stall, top, rest) -> _WTable:
        """The table on nodes T: a Hermite spline of W^{-1}, constant above the
        top node so T(W[-1]) is exact, and the W-images of the kinks."""
        pair = self.spec.pair
        inv = CubicHermiteSpline(W, T, 1.0 / pair.rho_kappa(T), extrapolate=False)
        inv.extend(np.array([[0.0], [0.0], [0.0], [T[-1]]]),
                   [np.nextafter(W[-1], np.inf)])
        kk = [t for m in (pair.kappa, pair.rho) for t in m.kinks()]
        kink_q = sorted({float(W[int(np.searchsorted(T, t))]) for t in kk
                         if T[0] < t < T[-1]})
        return _WTable(T, W, inv, kink_q, stall, top, rest)

    def _reach(self, q_max: float) -> _WTable:
        """The table, extended by the first block's rest, then blocks, until
        W reaches q_max, and published; on failure nothing changes.  A q_max
        past a stall is a NumericalBlowup."""
        t = self._table
        if not t.W[-1] < q_max:
            return t
        T, W, stall, top, block = t.T, t.W, t.stall, t.top, t.rest
        for _ in range(120):
            if stall is not None:
                raise _stall_error(stall)
            if block is None:
                lo, top = top, self.spec.T_h + 2.0 * (top - self.spec.T_h)
                block = segment_nodes(self.spec.pair, lo, top, _N_BASE)
            g, w, stall = self._w_block(block, float(W[-1]))
            block = None
            T, W = np.concatenate([T, g[1:]]), np.concatenate([W, w[1:]])
            if W[-1] >= q_max:
                self._table = t = self._fit(T, W, stall, top, None)
                return t
        raise NumericalBlowup(
            "coupling integral does not cover the requested energy range; "
            "the divergence assumption on rho*kappa appears violated"
        )

    def y_c(self, theta):
        """Hitting time where the trajectory reaches the cold-side value: a
        float for scalar theta, else an array of theta's shape."""
        theta = np.asarray(theta, dtype=float)
        flat = theta.ravel()
        t = self._reach(0.5 * _squared(flat.max(initial=0.0)))
        out = np.empty_like(flat)
        for i in range(0, flat.size, _Y_C_CHUNK):
            out[i:i + _Y_C_CHUNK] = self._y_c_chunk(t, flat[i:i + _Y_C_CHUNK])
        return _ret(out.reshape(theta.shape))

    def _descent_ends(self, t: _WTable) -> np.ndarray:
        """The descent's panel ends in p, sorted: P 4^-k, k <= _DESCENT_LEVELS,
        P = sqrt(2r), and the kinks' sqrt(-2 q_k); [0, h0] is a closed form."""
        P = math.sqrt(2.0 * self.spec.rk)
        h0 = P * 0.25 ** _DESCENT_LEVELS
        return np.sort([P * 0.25 ** k for k in range(_DESCENT_LEVELS + 1)] + [
            p_k for q_k in t.kink_q
            if q_k < 0 and h0 < (p_k := math.sqrt(-2.0 * q_k)) < P])

    @cached_property
    def _descent(self):
        """Nodes p of C on [h0, P], p^2, the GL weights times f(p) = 1 /
        rho(W^{-1}(-p^2 / 2)), h0 and f(0), on _descent_ends cut into
        ceil(4 width / (P - h0)) sub-intervals per panel.  Built on first use
        from the table up to T_h, which no extension moves."""
        t, rho = self._table, self.spec.pair.rho.value
        ends = self._descent_ends(t)
        a, b = _subdivide(ends, 4 * np.diff(ends) / (ends[-1] - ends[0]))
        x, half, w = gauss_legendre_on(a, b, _DESCENT_GL_ORDER)
        p = x.ravel()
        f = 1.0 / rho(t.T_of(-0.5 * p * p))
        return p, p * p, np.outer(half, w).ravel() * f, ends[0], 1.0 / rho(self.spec.T_h)

    def _y_c_chunk(self, t: _WTable, theta: np.ndarray) -> np.ndarray:
        """C(|theta|) as one kernel product on the nodes of _descent, with
        f(0) h0^2 / (hypot(h0, tau) + tau) for [0, h0] (f is even in p), plus
        twice the excursion for theta > 0.  Every row is summed in a fixed
        order, so its bits do not depend on the other theta of the chunk."""
        tt, tau = _squared(theta), np.abs(theta)
        p, pp, wf, h0, f0 = self._descent
        out = (np.einsum("ij,j->i", p / np.sqrt(tt[:, None] + pp), wf)
               + f0 * h0 * h0 / (np.hypot(h0, tau) + tau))
        up = np.flatnonzero(theta > 0)
        if up.size:
            out[up] += 2.0 * self._excursion(t, theta[up])
        return out

    def _excursion(self, t: _WTable, theta: np.ndarray) -> np.ndarray:
        """\\int_0^theta ds / rho(T(s)) for theta > 0 in the turning-point angle
        phi: theta \\int_0^{pi/2} sin(phi) g(theta sin(phi)) dphi with
        g(m) = 1 / rho(W^{-1}(m^2 / 2)), on the panels of _angle_panels, one
        W^{-1} call and one rho call per group of rows."""
        rho = self.spec.pair.rho.value
        out = np.empty_like(theta)
        for rows, ends, rules in _angle_panels(t, theta):
            if len(rules) == 1:
                sin, wsin = _PHI_SIN, _PHI_WSIN
            else:
                sizes = [r.x.size for r in rules]
                # np.repeat keeps rows C-contiguous, so einsum sums each one
                # in the same order as a row alone
                width = np.repeat(np.diff(ends, axis=1), sizes, axis=1)
                sin = np.sin(np.repeat(ends[:, :-1], sizes, axis=1)
                             + width * np.concatenate([r.x for r in rules]))
                wsin = width * np.concatenate([r.w for r in rules]) * sin
            m = theta[rows, None] * sin
            g = 1.0 / rho(t.T_of(0.5 * m * m))
            out[rows] = np.einsum("ij,j->i" if sin.ndim == 1 else "ij,ij->i", g, wsin)
        return theta * out

    def materialize(self, theta: float, *, gamma: float | None = None,
                    R_load: float | None = None,
                    n_out: int = N_OUT) -> TemperatureSolution:
        """The steady state on the trajectory of initial slope theta.

        Exactly one of gamma and R_load, finite and >= 0: R_total is
        (1 + gamma) R_int in ratio mode, else R_int + R_load, with
        R_int = L I(theta) / (y_c A_c).  The panels of y_c (for theta > 0
        _angle_panels mirrored onto [0, pi], then _descent_ends) are cut into
        ~_PROFILE_INTERVALS sub-intervals shared out by width in s; their
        cumulative integrals of ds / rho are y at the knots of a Hermite
        spline s(y) with slope rho, and T = W^{-1}(s (2 theta - s) / 2).
        """
        spec, rho = self.spec, self.spec.pair.rho.value
        _check_n_out(n_out)
        if (gamma is None) == (R_load is None) or not 0 <= (
                R_load if gamma is None else gamma) < math.inf:
            raise DomainError("materialize needs exactly one of gamma and R_load, "
                              f"finite and >= 0, got gamma={gamma}, R_load={R_load}")
        q_top = 0.5 * _squared(theta)  # the checks of y_c on theta
        t = self._reach(q_top if theta > 0 else 0.0)
        I = shooting_function(spec, theta)
        legs = [(_descent_leg, self._descent_ends(t), max(2.0 * theta, 0.0))]
        if theta > 0:
            ((_, (e,), rules),) = _angle_panels(t, np.array([theta]))
            # ungraded without kinks: graded sub-panels are narrow in s, so
            # one sub-interval each leaves s(y) short of knots near phi = 0
            lo = e[:-1] if len(rules) == 1 else np.concatenate(
                [e[i] + (e[i + 1] - e[i]) * r.ends[:-1] for i, r in enumerate(rules)])
            phi = np.concatenate([lo, [0.5 * np.pi], np.pi - lo[::-1]])
            legs.insert(0, (_angle_leg, phi, 0.0))
        # knots from the hot end, where s = y = 0; a leg's first knot is its
        # start (phi = 0 repeats the hot end) or h0, reached by the closed form
        rho_h = rho(spec.T_h)
        s, dy, slope = [np.zeros(1)], [np.zeros(1)], [np.full(1, rho_h)]
        for leg, v, s0 in legs:
            a, b = _subdivide(v, _PROFILE_INTERVALS * np.diff(leg(theta, v, 0)[2]) / I)
            x, half, w = gauss_legendre_on(a, b, _PROFILE_GL_ORDER)
            n = x.size  # one pass over the nodes, then the knots v[0] and b
            W, ds, s_k = leg(theta, np.concatenate([x.ravel(), v[:1], b]), n)
            r = rho(t.T_of(W))
            s.append(s0 + s_k)
            dy += [s_k[:1] / rho_h, np.einsum(
                "ij,ij->i", (ds[:n] / r[:n]).reshape(x.shape), half[:, None] * w)]
            slope.append(r[n:])
        s, slope, y = np.concatenate(s), np.concatenate(slope), np.cumsum(np.concatenate(dy))
        # the spline needs y increasing, and a step below an ulp of y_c only
        # adds divided differences that overflow: such a knot is dropped
        y_c = float(y[-1])
        keep = np.concatenate([[True], np.diff(y) > 2.0 ** -52 * y_c])
        s_out = CubicHermiteSpline(y[keep], s[keep], slope[keep])(
            np.linspace(0.0, y_c, n_out + 1))
        T = t.T_of(0.5 * s_out * (2.0 * theta - s_out))

        absJ = y_c / spec.L
        J = math.copysign(absJ, spec.V)
        R_int = spec.L * I / (y_c * spec.A_c)
        R_total = (1.0 + gamma) * R_int if R_load is None else R_int + R_load
        q = (s_out - theta) * absJ + spec.alpha0 * T * J
        return TemperatureSolution(
            x=np.linspace(0.0, spec.L, n_out + 1), T=T, q=q,
            theta=theta, y_c=y_c, J=J, R_total=R_total,
            q_h=float(q[0]), q_c=float(q[-1]), gamma=gamma, R_load=R_load,
        )
