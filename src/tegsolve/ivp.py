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
one quadrature in s (HittingTimeQuadrature).  Neither q(s) nor I(theta)
cancels for theta <= 0, however far theta lies below -sqrt(2r).  Every
trajectory ends with the same descent from T_h to T_c, where
p = sqrt(-2 W(T)) runs from 0 to sqrt(2r) and ds = p dp / sqrt(theta^2 + p^2):

    y_c(theta) = C(|theta|) + [theta > 0] 2 \\int_0^theta ds / rho(T(s)),
    C(tau) = \\int_0^{sqrt(2r)} p dp / (rho(T(p)) sqrt(tau^2 + p^2)).

The excursion above T_h is smooth in the turning-point angle phi, where
sqrt(2 q) = theta sin(phi) and s = theta (1 - cos(phi)).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
from .materials import _gauss_legendre, _ret, segment_integrals, segment_nodes

TOL_ETA = 1e-6      # closed-form vs flux-ratio efficiency agreement
TOL_ENERGY = 1e-8   # energy identity, relative to max(1, theta^2 + 2r)
N_OUT = 256         # output grid intervals for reconstructed profiles
_Y_C_CHUNK = 64     # theta per y_c array pass: bounds memory for any scan length
_PROFILE_INTERVALS = 512  # GL sub-intervals in w behind one materialised profile
_N_BASE = 8193     # uniform nodes per W^-1 grid block
_GL_ORDER = 80     # Gauss-Legendre nodes per sub-interval in w
_DESCENT_GL_ORDER = 24  # Gauss-Legendre nodes per sub-interval of the descent in p
_DESCENT_LEVELS = 16    # panels [P 4^-k-1, P 4^-k] graded toward p = 0
_EXCURSION_GL_ORDER = 16  # Gauss-Legendre nodes per panel of the excursion in phi
_EXCURSION_LEVELS = 4     # panels graded by 1/4 toward phi = 0
_KINK_LEVELS = 6          # panels graded by 1/4 toward a kink above T_h


def _graded(levels: int):
    """Nodes and weights on [0, 1] of _EXCURSION_GL_ORDER-point Gauss-Legendre
    on the panels [4^-k-1, 4^-k], k < levels, and [0, 4^-levels]."""
    ends = np.array([0.0] + [0.25 ** k for k in range(levels, -1, -1)])
    nodes, weights = _gauss_legendre(_EXCURSION_GL_ORDER)
    half = 0.5 * np.diff(ends)
    return ((half[:, None] * nodes + (0.5 * (ends[:-1] + ends[1:]))[:, None]).ravel(),
            np.outer(half, weights).ravel())


def _two_sided(lo: int, hi: int):
    """Nodes and weights on [0, 1]: _graded(lo) on [0, 1/2] and _graded(hi)
    mirrored onto [1/2, 1]."""
    (x_lo, w_lo), (x_hi, w_hi) = _graded(lo), _graded(hi)
    return (np.concatenate([0.5 * x_lo, 1.0 - 0.5 * x_hi[::-1]]),
            np.concatenate([0.5 * w_lo, 0.5 * w_hi[::-1]]))


# the excursion's rule on [0, pi/2], graded toward phi = 0: sin(phi) and the
# weights times sin(phi) on its nodes
_x, _w = _graded(_EXCURSION_LEVELS)
_PHI_SIN = np.sin(0.5 * np.pi * _x)
_PHI_WSIN = 0.5 * np.pi * _w * _PHI_SIN
del _x, _w
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


def _subdivide(pts: np.ndarray, n_span: int):
    """Cut each panel between consecutive split points of every row of pts
    (sorted along axis 1) into ceil(n_span * width / span) equal
    sub-intervals, span being the row's whole range; zero-width panels get
    none.  Returns the owning row and the ends a, b of every sub-interval,
    placed exactly as np.linspace places them, in one array pass."""
    width = np.diff(pts, axis=1)
    span = pts[:, -1:] - pts[:, :1] + 4e-300  # no 0/0 on a collapsed row
    n_sub = np.where(width > 0, np.ceil(n_span * width / span),
                     0).astype(np.intp).ravel()
    owner = np.repeat(np.arange(pts.shape[0]).repeat(width.shape[1]), n_sub)
    k = np.repeat(n_sub, n_sub)
    j = np.arange(k.size) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    a0 = np.repeat(pts[:, :-1].ravel(), n_sub)
    step = np.repeat(width.ravel(), n_sub) / k
    b = np.where(j + 1 == k, np.repeat(pts[:, 1:].ravel(), n_sub),
                 (j + 1) * step + a0)
    return owner, j * step + a0, b


def _unmirrored(theta: np.ndarray, owner, a, b):
    """The sub-intervals of _subdivide outside [theta[owner], 2 theta[owner]]:
    for theta > 0 the integrand depends on q(s) = q(2 theta - s) only, so
    those mirror the ones in [0, theta]."""
    th = theta[owner]
    keep = (a < th) | (a >= 2.0 * th)
    return owner[keep], a[keep], b[keep]


def _squared(theta: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(tt := theta * theta)):
        raise NumericalBlowup("theta^2 is not a finite float")
    return tt


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
    integrates the whole drop in s into a profile.
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
        top = flat.max(initial=0.0)
        if np.isnan(top):
            raise DomainError("y_c needs theta values that are not NaN")
        t = self._reach(0.5 * top * top)
        out = np.empty_like(flat)
        for i in range(0, flat.size, _Y_C_CHUNK):
            out[i:i + _Y_C_CHUNK] = self._y_c_chunk(t, flat[i:i + _Y_C_CHUNK])
        return _ret(out.reshape(theta.shape))

    def _splits(self, t: _WTable, theta: np.ndarray) -> np.ndarray:
        """Panel ends in s per theta, sorted along axis 1: 0, I(theta), theta
        and 2 theta (theta > 0) and the s-images of the rho/kappa kinks that
        some theta reaches.  A kink at q_k = W(T_k) has the images
        s = theta -+ sqrt(theta^2 - 2 q_k), taken as b = theta +
        copysign(sqrt(theta^2 - 2 q_k), theta) and 2 q_k / b, so neither
        cancels.  Absent split points are set to 0, so they become
        zero-width panels."""
        tt = _squared(theta)
        I = shooting_function(self.spec, theta)
        up = theta > 0
        cols = [np.zeros_like(theta), I, np.where(up, theta, 0.0),
                np.where(up, 2.0 * theta, 0.0)]
        top = theta.max(initial=0.0)
        for q_k in t.kink_q[:bisect_left(t.kink_q, 0.5 * top * top)]:
            w2 = tt - 2.0 * q_k
            root = np.sqrt(np.maximum(w2, 0.0))
            # b = inf where theta does not reach the kink: both images drop out
            b = np.where(w2 > 0, theta + np.copysign(root, theta), np.inf)
            for cand in (b, 2.0 * q_k / b):
                cols.append(np.where((0.0 < cand) & (cand < I), cand, 0.0))
        return np.sort(np.column_stack(cols), axis=1)

    def _T_of_s(self, t: _WTable, theta, s):
        """T = W^{-1}(s (2 theta - s) / 2) on t's spline."""
        return t.inv(np.clip(0.5 * s * (2.0 * theta - s), t.W[0], t.W[-1]))

    def _inv_rho_integrals(self, t: _WTable, a, b, theta):
        """Gauss-Legendre integral of 1 / rho(T(s)) over each [a, b]."""
        nodes, weights = _gauss_legendre(_GL_ORDER)
        half = 0.5 * (b - a)
        s = half[:, None] * nodes + (0.5 * (a + b))[:, None]
        inv_rho = 1.0 / self.spec.pair.rho.value(self._T_of_s(t, theta[:, None], s))
        return half * (inv_rho @ weights)

    @cached_property
    def _descent(self):
        """Nodes p of C on [h0, P], P = sqrt(2r), p^2, the GL weights times
        f(p) = 1 / rho(W^{-1}(-p^2 / 2)), h0 and f(0): panels graded by 1/4
        toward p = 0, split at the kinks' sqrt(-2 q_k) and cut by _subdivide.
        Built on first use from the table up to T_h, which no extension moves."""
        t, rho = self._table, self.spec.pair.rho.value
        P = math.sqrt(2.0 * self.spec.rk)
        h0 = P * 0.25 ** _DESCENT_LEVELS
        ends = [P * 0.25 ** k for k in range(_DESCENT_LEVELS + 1)] + [
            p_k for q_k in t.kink_q if q_k < 0 and h0 < (p_k := math.sqrt(-2.0 * q_k)) < P]
        _, a, b = _subdivide(np.sort(ends)[None, :], 4)
        nodes, weights = _gauss_legendre(_DESCENT_GL_ORDER)
        half = 0.5 * (b - a)
        p = (half[:, None] * nodes + (0.5 * (a + b))[:, None]).ravel()
        f = 1.0 / rho(t.inv(np.clip(-0.5 * p * p, t.W[0], t.W[-1])))
        return p, p * p, np.outer(half, weights).ravel() * f, h0, 1.0 / rho(self.spec.T_h)

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
        phi, m = sqrt(2 q) = theta sin(phi), s = theta (1 - cos(phi)):

            theta \\int_0^{pi/2} sin(phi) g(theta sin(phi)) dphi,
            g(m) = 1 / rho(W^{-1}(m^2 / 2)).

        A row that reaches no kink above T_h takes the fixed nodes graded
        toward phi = 0.  One that reaches k of them is cut at their
        phi_k = asin(sqrt(2 q_k) / theta) into k + 1 panels, each graded
        toward its ends at phi = 0 and at kinks.  Rows are grouped by k, one
        W^{-1} call and one rho call per group."""
        rho = self.spec.pair.rho.value
        q_k = np.array(t.kink_q[bisect_right(t.kink_q, 0.0):])
        ratio = np.sqrt(2.0 * q_k) / theta[:, None]  # < 1 where a row reaches q_k
        reached = np.count_nonzero(ratio < 1.0, axis=1)
        out = np.empty_like(theta)
        for k in np.unique(reached):
            rows = np.flatnonzero(reached == k)
            if k == 0:
                sin, wsin = _PHI_SIN, _PHI_WSIN
            else:
                rules = [_FIRST] + [_MIDDLE] * (k - 1) + [_LAST]
                sizes = [x.size for x, _ in rules]
                ends = np.column_stack([np.zeros(rows.size), np.arcsin(ratio[rows, :k]),
                                        np.full(rows.size, 0.5 * np.pi)])
                # np.repeat keeps rows C-contiguous, so einsum sums each one
                # in the same order as a row alone
                width = np.repeat(np.diff(ends, axis=1), sizes, axis=1)
                sin = np.sin(np.repeat(ends[:, :-1], sizes, axis=1)
                             + width * np.concatenate([x for x, _ in rules]))
                wsin = width * np.concatenate([w for _, w in rules]) * sin
            m = theta[rows, None] * sin
            g = 1.0 / rho(t.inv(np.clip(0.5 * m * m, t.W[0], t.W[-1])))
            out[rows] = np.einsum("ij,j->i" if k == 0 else "ij,ij->i", g, wsin)
        return theta * out

    def materialize(self, theta: float, *, gamma: float | None = None,
                    R_load: float | None = None,
                    n_out: int = N_OUT) -> TemperatureSolution:
        """The steady state on the trajectory of initial slope theta.

        R_total is (1 + gamma) R_int in ratio mode, else R_int + R_load, with
        the closed form R_int = L I(theta) / (y_c A_c).  The panels of _splits
        are cut into about _PROFILE_INTERVALS sub-intervals by _subdivide; their
        cumulative GL integrals give y at the edges, a Hermite spline of s(y)
        with the exact slope ds/dy = rho(T(s)) gives s on the n_out + 1
        output points, and T = W^{-1}(s (2 theta - s) / 2) on them.
        """
        spec = self.spec
        _check_n_out(n_out)
        t = self._reach(0.5 * theta * theta if theta > 0 else 0.0)
        th = np.array([theta])
        _, a, b = _unmirrored(th, *_subdivide(self._splits(t, th), _PROFILE_INTERVALS))
        seg = self._inv_rho_integrals(t, a, b, np.full(a.size, theta))
        # y(s) counted from the hot end, where s = 0
        s = np.concatenate([[0.0], b])
        y = np.concatenate([[0.0], np.cumsum(seg)])
        n = np.count_nonzero(a < theta)  # sub-intervals in [0, theta]: s[n] = theta
        if n:  # edges 2 theta - v of [theta, 2 theta] by reflection of the
            # edges v of [0, theta]: y(2 theta - v) = 2 y(theta) - y(v)
            s = np.concatenate([s[:n + 1], 2.0 * theta - s[n - 1::-1], s[n + 1:]])
            y = np.concatenate([y[:n + 1], 2.0 * y[n] - y[n - 1::-1], y[n] + y[n + 1:]])
        slope = spec.pair.rho.value(self._T_of_s(t, theta, s))
        # the spline needs y increasing, and a step below an ulp of y_c only
        # adds divided differences that overflow: such a knot is dropped
        y_c = float(y[-1])
        keep = np.concatenate([[True], np.diff(y) > 2.0 ** -52 * y_c])
        s_out = CubicHermiteSpline(y[keep], s[keep], slope[keep])(
            np.linspace(0.0, y_c, n_out + 1))
        T = self._T_of_s(t, theta, s_out)

        absJ = y_c / spec.L
        J = math.copysign(absJ, spec.V)
        R_int = spec.L * shooting_function(spec, theta) / (y_c * spec.A_c)
        R_total = (1.0 + gamma) * R_int if R_load is None else R_int + R_load
        q = (s_out - theta) * absJ + spec.alpha0 * T * J
        return TemperatureSolution(
            x=np.linspace(0.0, spec.L, n_out + 1), T=T, q=q,
            theta=theta, y_c=y_c, J=J, R_total=R_total,
            q_h=float(q[0]), q_c=float(q[-1]), gamma=gamma, R_load=R_load,
        )
