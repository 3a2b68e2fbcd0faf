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
sqrt(2 q) = theta sin(phi) and s = theta (1 - cos(phi)).  A profile solves
y(s) = y_j in s on the s-images of the sub-intervals of y_c.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import GeneratorSpec, matched_initial_slope, shooting_function
from .errors import DegenerateError, DomainError, NonPositiveHotFlux, NumericalBlowup
from .materials import (_ret, finite_positive, gauss_legendre_on, segment_integrals,
                        segment_nodes)

N_OUT = 256         # output grid intervals for reconstructed profiles
_Y_C_CHUNK = 64     # theta per y_c array pass: bounds memory for any scan length
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


class _Hermite:
    """The cubic Hermite spline through (x, y) with slopes d, x strictly
    increasing, built and evaluated as scipy's CubicHermiteSpline does, bit
    for bit.  The first cubic continues below x[0]; a constant y[-1] piece
    starts at x[-1], so the spline is y[-1] there and above."""

    def __init__(self, x, y, d):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2 * slope) / dx
        c = [t / dx, (slope - d[:-1]) / dx - t, d[:-1], y[:-1]]
        self.x = np.append(x, np.nextafter(x[-1], np.inf))
        self._c = [np.append(ck, top) for ck, top in zip(c, (0.0, 0.0, 0.0, y[-1]))]
        self._index = np.arange(self.x.size - 1, dtype=float)

    def __call__(self, v):
        """The spline at v, an array of v's shape, summed in scipy's order."""
        x, (c0, c1, c2, c3) = self.x, self._c
        # np.interp starts from the last interval found, as scipy's search does;
        # it rounds up onto a node at worst and reads 1 below x[0]: both fixed here
        i = np.interp(v, x[:-1], self._index, left=1.0).astype(np.intp)
        i -= v < x[i]
        s = v - x[i]
        ss = s * s
        # in place, so that few large temporaries are live at once
        out = c2[i]
        out *= s
        out += c3[i]
        s *= ss
        ss *= c1[i]
        out += ss
        s *= c0[i]
        out += s
        return out


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
        T, u_h = np.full_like(x, spec.T_c), spec.T_c
        R_int = spec.pair.rho.value(spec.T_c) * spec.L / spec.A_c
    else:
        grid, K = spec.K_table(spec.T_h)
        u_h = float(K[-1])  # spec.u_h, without building the table again
        K_inv = _Hermite(K, grid, 1.0 / spec.pair.kappa.value(grid))
        T = K_inv(np.linspace(u_h, spec.u_c, n_out + 1))
        R_int = spec.L * spec.rk / ((u_h - spec.u_c) * spec.A_c)
    q = np.full_like(x, (u_h - spec.u_c) / spec.L)
    return TemperatureSolution(
        x=x, T=T, q=q, theta=(spec.u_c - u_h) / spec.L, y_c=0.0, J=0.0,
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


def _squared(theta):
    """theta^2; DomainError for NaN, NumericalBlowup where it would overflow."""
    a = np.abs(theta)
    if np.any(np.isnan(a)):
        raise DomainError("theta must not be NaN")
    if not np.all(a <= _THETA_MAX):
        raise NumericalBlowup("theta^2 is not a finite float")
    return theta * theta


class _WTable(NamedTuple):
    """Everything y_c reads of W^{-1}: published whole, never changed."""

    T: np.ndarray            # nodes, kinks among them
    W: np.ndarray            # W(T) - W(T_h) on the nodes
    inv: _Hermite            # T of W, constant above W[-1]
    kink_q: list             # W-images of the rho/kappa kinks inside
    cut: str | None          # why the nodes end below top, if they do
    top: float               # top of the last block
    rest: np.ndarray | None  # the first block's nodes above T_h, not yet summed

    def T_of(self, W):
        """W^{-1}(W), W clipped to the table's range."""
        return self.inv(np.clip(W, self.W[0], self.W[-1]))


class _Descent(NamedTuple):
    """The descent C on [h0, P] in p, laid out once per quadrature."""

    ends: np.ndarray  # sub-interval ends, sorted, from h0 to P
    p: np.ndarray     # 24-point Gauss-Legendre nodes on the sub-intervals
    pp: np.ndarray    # p^2
    wf: np.ndarray    # the weights times f(p) = 1 / rho(W^{-1}(-p^2 / 2))
    f0: float         # f(0) = 1 / rho(T_h), for [0, h0] in closed form


def _angle_panels(t: _WTable, theta: np.ndarray):
    """The excursion's panels in phi for theta > 0, per number k of kinks
    above T_h a row reaches: its rows, the panel ends 0, phi_k =
    asin(sqrt(2 q_k) / theta) and pi/2 on each row (one row for k = 0), and
    each panel's _Rule: _GRADED for [0, pi/2], else _FIRST, _MIDDLE, _LAST."""
    q_k = np.array(t.kink_q[bisect_right(t.kink_q, 0.0):])
    ratio = np.sqrt(2.0 * q_k) / theta[:, None]  # < 1 where a row reaches q_k
    reached = np.count_nonzero(ratio < 1.0, axis=1)
    for k in np.flatnonzero(np.bincount(reached)):  # np.unique, without numpy.ma
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
    integrand of the descent C, in p, does not depend on theta: its nodes and
    values are laid out with the table (_lay_descent), on sub-intervals graded
    toward p = 0, the top one split at its quarter points and all of them cut
    at the kinks below T_h, and a theta costs one kernel product.
    The excursion above T_h is integrated in the turning-point angle phi, on
    fixed nodes graded toward phi = 0 and, where the row reaches kinks above
    T_h, on panels cut at them and graded toward them (_excursion).  The
    inverse of W is cached as a Hermite spline on a kink-aware grid with node
    values from 8-point Gauss-Legendre per segment and exact node derivatives
    dT/dW = 1/(rho kappa); kinks sit on nodes, so every segment is smooth and
    every spline interval O(h^4).  The grid is built to T_h, as far as
    theta <= 0 reaches; theta > 0 appends the rest of the first _N_BASE-node
    block, then further blocks, so nodes never move; a block's W is the W at
    its lower end (W(T_h) = 0 for the first block's rest) plus the running
    sum of its segment integrals.  The grid ends above T_h where W stops
    growing or kappa or rho is invalid, and NumericalBlowup meets a theta
    beyond it.  All of it is one _WTable, replaced whole by each extension.
    materialize solves y(s) = y_j on the same sub-intervals, mapped to s.
    """

    def __init__(self, spec: GeneratorSpec):
        if spec.delta_T <= 0:
            raise DegenerateError("hitting-time quadrature needs T_h > T_c")
        self.spec = spec
        self._table = self._build()
        self._descent = self._lay_descent(self._table)

    def _build(self) -> _WTable:
        """The first table: W on the first block's nodes up to T_h, the rest
        of the block left for _reach."""
        spec = self.spec
        top = spec.T_h + max(2.0 * spec.delta_T, 1e-3 * spec.T_h)
        grid = segment_nodes(spec.pair, spec.T_c, top, _N_BASE, extra=(spec.T_h,))
        i_h = int(np.searchsorted(grid, spec.T_h))
        T, W, cut = self._w_block(grid[:i_h + 1], 0.0)
        return self._fit(T, W - W[-1], cut, top, grid[i_h:])

    def _w_block(self, grid, W_0: float):
        """The nodes of grid to the block's end, W on them (W_0 plus the running
        sum of their rho * kappa segment integrals) and why it ends early, or
        None.  It ends before the first node above T_h where kappa or rho is
        not finite_positive (exact: the kinks are nodes, and every family is
        monotone between them), else where W stops growing; NumericalBlowup
        if that cuts off T_h, below which the spec's validate_range holds."""
        pair = self.spec.pair
        seg = segment_integrals(pair.rho_kappa, grid)
        W = W_0 + np.cumsum(np.concatenate([[0.0], seg]))
        stall = np.flatnonzero(~(np.diff(W) > 0))
        i_h = int(np.searchsorted(grid, self.spec.T_h, "right"))
        above = grid[i_h:stall[0] + 2 if stall.size else None]  # to the stall's end
        with np.errstate(all="ignore"):
            ok = [finite_positive(m.value(above)) for m in (pair.kappa, pair.rho)]
        bad = np.flatnonzero(~(ok[0] & ok[1]))
        if bad.size:
            b = int(bad[0])
            names = " and ".join(n for n, v in zip(("kappa", "rho"), ok) if not v[b])
            end, cut = i_h + b, f"no valid {names} at T={above[b]:.6g} (finite, > 0)"
        elif stall.size:
            end, cut = int(stall[0]) + 1, (
                f"coupling integral stops growing at T={grid[stall[0]]:.6g}; "
                "rho*kappa appears integrable")
        else:
            return grid, W, None
        if end == 0 or grid[end - 1] < self.spec.T_h:
            raise NumericalBlowup(cut)
        return grid[:end], W[:end], cut

    def _fit(self, T, W, cut, top, rest) -> _WTable:
        """The table on nodes T: a Hermite spline of W^{-1}, constant above the
        top node so T(W[-1]) is exact, and the W-images of the kinks."""
        pair = self.spec.pair
        inv = _Hermite(W, T, 1.0 / pair.rho_kappa(T))
        kk = [t for m in (pair.kappa, pair.rho) for t in m.kinks()]
        kink_q = sorted({float(W[int(np.searchsorted(T, t))]) for t in kk
                         if T[0] < t < T[-1]})
        return _WTable(T, W, inv, kink_q, cut, top, rest)

    def _reach(self, q_max: float) -> _WTable:
        """The table, extended by the first block's rest, then blocks, until
        W reaches q_max, and published; on failure nothing changes.  A q_max
        past the grid's end, or beyond 120 doublings, is a NumericalBlowup."""
        t = self._table
        if not t.W[-1] < q_max:
            return t
        T, W, cut, top, block = t.T, t.W, t.cut, t.top, t.rest
        for _ in range(120):
            if cut is not None:
                raise NumericalBlowup(cut)
            if block is None:
                lo, top = top, self.spec.T_h + 2.0 * (top - self.spec.T_h)
                block = segment_nodes(self.spec.pair, lo, top, _N_BASE)
            g, w, cut = self._w_block(block, float(W[-1]))
            block = None
            T, W = np.concatenate([T, g[1:]]), np.concatenate([W, w[1:]])
            if W[-1] >= q_max:
                self._table = t = self._fit(T, W, cut, top, None)
                return t
        raise NumericalBlowup(cut or (
            f"120 block doublings reach W={W[-1]:.6g} at T={T[-1]:.6g}, "
            f"short of the W={q_max:.6g} that theta needs"))

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

    def _lay_descent(self, t: _WTable) -> _Descent:
        """The descent on the sub-intervals in p between P 4^-k, k <=
        _DESCENT_LEVELS, P = sqrt(2r), the three quarter points of [P/4, P]
        and the kinks' sqrt(-2 q_k) in (h0, P), h0 = P 4^-_DESCENT_LEVELS;
        built from the table up to T_h, which no extension moves."""
        P, rho = math.sqrt(2.0 * self.spec.rk), self.spec.pair.rho.value
        q, h0 = P * 0.25, P * 0.25 ** _DESCENT_LEVELS
        ends = np.array(sorted({P * 0.25 ** k for k in range(_DESCENT_LEVELS + 1)}
                               | {j * ((P - q) / 4) + q for j in (1, 2, 3)}
                               | {p_k for q_k in t.kink_q
                                  if q_k < 0 and h0 < (p_k := math.sqrt(-2.0 * q_k)) < P}))
        x, half, w = gauss_legendre_on(ends[:-1], ends[1:], _DESCENT_GL_ORDER)
        p = x.ravel()
        wf = np.outer(half, w).ravel() * (1.0 / rho(t.T_of(-0.5 * p * p)))
        return _Descent(ends, p, p * p, wf, 1.0 / rho(self.spec.T_h))

    def _y_c_chunk(self, t: _WTable, theta: np.ndarray) -> np.ndarray:
        """C(|theta|) as one kernel product on the nodes of _descent, with
        f(0) h0^2 / (hypot(h0, tau) + tau) for [0, h0] (f is even in p), plus
        twice the excursion for theta > 0.  Every row is summed in a fixed
        order, so its bits do not depend on the other theta of the chunk."""
        tt, tau = _squared(theta), np.abs(theta)
        ends, p, pp, wf, f0 = self._descent
        h0 = ends[0]
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
        R_int = L I(theta) / (y_c A_c), y_c = y_c(theta).  y(s) =
        \\int_0^s ds / rho(W^{-1}(s (2 theta - s) / 2)) is summed by 24-point
        Gauss-Legendre on the s-images of y_c's sub-intervals (for theta > 0
        the excursion's, mirrored about theta, then the descent's).  Each y_j
        = j y_c / n_out starts from the cubic Hermite s(y) on its sub-interval
        and takes Newton steps s -= rho (y(s) - y_j) on it, y(s) by 16-point GL
        from the start, until one moves s by <= 4 eps (I + |theta|), 16 at most.
        """
        spec, rho = self.spec, self.spec.pair.rho.value
        _check_n_out(n_out)
        if (gamma is None) == (R_load is None) or not 0 <= (
                R_load if gamma is None else gamma) < math.inf:
            raise DomainError("materialize needs exactly one of gamma and R_load, "
                              f"finite and >= 0, got gamma={gamma}, R_load={R_load}")
        y_c = self.y_c(theta)  # which checks theta and reaches the table it needs
        t, I = self._table, shooting_function(spec, theta)

        def y_on(a, b, order):  # \int_a^b ds / rho by order-point GL, and rho at b
            x, half, w = gauss_legendre_on(a, b, order)
            v = np.concatenate([x.ravel(), b])
            r = rho(t.T_of(0.5 * v * (2.0 * theta - v)))
            return half * ((1.0 / r[:x.size]).reshape(x.shape) @ w), r[x.size:]

        # the ends in s; the descent's first sub-interval in s covers [0, h0] too
        p, e = self._descent.ends[1:], [np.zeros(1)]
        if theta > 0:
            ((_, (phi,), rules),) = _angle_panels(t, np.array([theta]))
            up = 2.0 * theta * np.sin(0.5 * np.concatenate(
                [a + (b - a) * r.ends[:-1] for a, b, r in zip(phi, phi[1:], rules)])) ** 2
            e = [up, [theta], 2.0 * theta - up[::-1]]
        e = np.concatenate(e + [max(2.0 * theta, 0.0)
                                + p * (p / (np.hypot(theta, p) + abs(theta)))])
        dY, r_e = y_on(e[:-1], e[1:], 24)
        Y, r_e = np.concatenate([[0.0], np.cumsum(dY)]), np.r_[rho(spec.T_h), r_e]

        y = np.linspace(0.0, y_c, n_out + 1)[1:-1]
        i = np.minimum(np.searchsorted(Y, y, "right") - 1, e.size - 2)
        a, b, ra, rb, h = e[i], e[i + 1], r_e[i], r_e[i + 1], Y[i + 1] - Y[i]
        u, k1, k2 = (y - Y[i]) / h, (b - a) / h - ra, rb - (b - a) / h
        s0 = np.clip(a + (y - Y[i]) * (ra + u * (2.0 * k1 - k2 + u * (k2 - k1))), a, b)
        # y at the starts, summed from the point before on the same sub-interval
        new = np.diff(i, prepend=-1) != 0
        piece, r = y_on(np.where(new, a, np.roll(s0, 1)), s0, 24)
        acc = np.cumsum(piece)
        y0 = Y[i] + acc - (acc - piece)[np.maximum.accumulate(new * np.arange(y.size))]

        s, dy, live = s0.copy(), 0.0, np.arange(y.size)
        tol = 4.0 * np.finfo(float).eps * (I + abs(theta))
        for _ in range(16):  # dy = y(s) - y(s0), r = rho(s) on the live points
            s_live = s[live]
            s[live] = np.clip(s_live - r * (y0[live] + dy - y[live]), a[live], b[live])
            live = live[~(np.abs(s[live] - s_live) <= tol)]
            if not live.size:
                break
            dy, r = y_on(s0[live], s[live], 16)
        else:
            raise NumericalBlowup(f"no profile at theta={theta:.17g} in 16 Newton steps")
        s = np.concatenate([[0.0], s, e[-1:]])
        T = np.r_[spec.T_h, t.T_of(0.5 * s[1:-1] * (2.0 * theta - s[1:-1])), spec.T_c]

        absJ = y_c / spec.L
        J = math.copysign(absJ, spec.V)
        R_int = spec.L * I / (y_c * spec.A_c)
        R_total = (1.0 + gamma) * R_int if R_load is None else R_int + R_load
        q = (s - theta) * absJ + spec.alpha0 * T * J
        return TemperatureSolution(
            x=np.linspace(0.0, spec.L, n_out + 1), T=T, q=q,
            theta=theta, y_c=y_c, J=J, R_total=R_total,
            q_h=float(q[0]), q_c=float(q[-1]), gamma=gamma, R_load=R_load,
        )
