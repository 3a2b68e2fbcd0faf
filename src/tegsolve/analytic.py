"""Closed-form performance quantities of a one-dimensional generator leg.

For a constant Seebeck coefficient the steady state is unique for every load
ratio gamma >= 0 and the conversion efficiency has an explicit form driven by
a single material figure of merit

    z = alpha0^2 * (T_h - T_c) / r,      r = \\int_{T_c}^{T_h} rho kappa dT,

namely  eta(gamma) = (dT/T_h) * gamma / (gamma + 1 + (gamma+1)^2/(z T_h)
- dT/(2 T_h)),  maximized at gamma_opt = sqrt(1 + z T_m).  The shooting
function I(theta) = theta + sqrt(theta^2 + 2r) gives the value of the nonlocal
current constraint as a function of the initial slope in transformed
coordinates; its unique preimage theta* fixes the hot-side Fourier flux per
unit current.  All formulas here are pure functions of the spec and are
cross-checked against the trajectory solver in the test suite.  r and the
transform K come from the Gauss-Legendre pass of materials.segment_integrals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateError, DomainError, NumericalBlowup, ZeroSeebeck, ZeroVoltage
from .materials import MaterialPair, _ret, segment_integrals, segment_nodes


@dataclass(frozen=True)
class GeneratorSpec:
    """Geometry, boundary temperatures and material pair of one leg.

    Units are SI (K, m, m^2, V/K, W/(m K), Ohm m); dimensionless desk-scale
    values work equally well since every formula is scale-consistent.
    """

    pair: MaterialPair
    T_h: float
    T_c: float
    L: float = 1.0
    A_c: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.T_h, self.T_c, self.L, self.A_c))):
            raise DomainError(f"need finite T_h, T_c, L and A_c, got T_h={self.T_h}, "
                              f"T_c={self.T_c}, L={self.L}, A_c={self.A_c}")
        if not self.T_c > 0:
            raise DomainError(f"need T_c > 0, got T_c={self.T_c}")
        if self.T_h < self.T_c:
            raise DomainError(f"need T_h >= T_c, got T_h={self.T_h} < T_c={self.T_c}")
        if self.L <= 0 or self.A_c <= 0:
            raise DomainError("need L > 0 and A_c > 0")
        self.pair.validate_range(self.T_c, self.T_h)

    @property
    def alpha0(self) -> float:
        return self.pair.alpha0

    @property
    def delta_T(self) -> float:
        return self.T_h - self.T_c

    @property
    def T_m(self) -> float:
        return 0.5 * (self.T_h + self.T_c)

    @property
    def V(self) -> float:
        """Seebeck voltage alpha0 * (T_h - T_c), signed."""
        return self.alpha0 * self.delta_T

    def K(self, T):
        """u = K(T) = T_c + \\int_{T_c}^{T} kappa dT for T >= T_c: a float for
        scalar T, else an array of T's shape.  DomainError below T_c, and
        K_table's range check up to the largest T."""
        T = np.asarray(T, dtype=float)
        if not np.all(T >= self.T_c):
            raise DomainError(f"K(T) needs T >= T_c={self.T_c}")
        grid, u = self.K_table(np.max(T, initial=self.T_c), extra=T)
        return _ret(u[np.searchsorted(grid, T)])

    def K_table(self, T_top: float, extra=()):
        """segment_nodes on [T_c, T_top], the extra temperatures merged in,
        and K on them: running sums of the segment integrals with
        each addition's rounding error added back (TwoSum), so every K is as
        accurate as a pairwise sum.  A T_top past [T_c, T_h] must pass validate_range."""
        if not self.T_c <= T_top <= self.T_h:
            self.pair.validate_range(self.T_h if T_top > self.T_h else self.T_c, T_top)
        grid = segment_nodes(self.pair, self.T_c, T_top, extra=extra)
        x = np.concatenate([[self.T_c], segment_integrals(self.pair.kappa.value, grid)])
        u = np.cumsum(x)
        prev = np.concatenate([[0.0], u[:-1]])
        err = (prev - (u - (u - prev))) + (x - (u - prev))
        return grid, u + np.cumsum(err)

    @cached_property
    def u_h(self) -> float:
        return self.K(self.T_h)

    @property
    def u_c(self) -> float:
        return self.T_c

    @cached_property
    def rk(self) -> float:
        """Coupling integral r over [T_c, T_h], as rho_kappa_integral sums it."""
        return float(np.sum(segment_integrals(
            self.pair.rho_kappa, segment_nodes(self.pair, self.T_c, self.T_h))))


def figure_of_merit(spec: GeneratorSpec) -> float:
    """z = alpha0^2 / ((1/dT) * r), alpha0^2/(rho0 kappa0) for constant
    properties; NumericalBlowup where z T_h overflows, 0 where alpha0^2 underflows."""
    if spec.alpha0 == 0:
        raise ZeroSeebeck("figure of merit undefined for alpha0 = 0")
    if spec.delta_T == 0:
        raise DegenerateError("figure of merit undefined for T_h = T_c")
    z = spec.alpha0 * spec.alpha0 * spec.delta_T / spec.rk
    if not z * spec.T_h < math.inf:
        raise NumericalBlowup(f"z T_h = {z * spec.T_h} is not a finite float")
    return z


def efficiency(spec: GeneratorSpec, gamma: float) -> float:
    """Conversion efficiency at load ratio gamma >= 0; 0 <= eta < dT/T_h."""
    if not 0 <= gamma < math.inf:
        raise DomainError(f"load ratio must be finite and >= 0, got {gamma}")
    z = figure_of_merit(spec)
    dT, T_h, g1 = spec.delta_T, spec.T_h, float(gamma) + 1.0
    # eta's limit 0 where z T_h underflows to 0 or (gamma + 1)^2 overflows
    denom = g1 + g1 * g1 / (z * T_h) - 0.5 * dT / T_h if z * T_h else math.inf
    return (dT / T_h) * gamma / denom


def max_efficiency(spec: GeneratorSpec) -> tuple[float, float]:
    """(eta_max, gamma_opt) with gamma_opt = sqrt(1 + z*T_m) >= 1."""
    z = figure_of_merit(spec)
    s = math.sqrt(1.0 + z * spec.T_m)
    s_1 = z * spec.T_m / (s + 1.0)  # s - 1, free of cancellation at small z
    eta_max = (spec.delta_T / spec.T_h) * s_1 / (s + spec.T_c / spec.T_h)
    return eta_max, s


def shooting_function(spec: GeneratorSpec, theta):
    """I(theta) = theta + sqrt(theta^2 + 2r): the value of the nonlocal
    current constraint produced by initial slope theta in transformed
    coordinates; a float for scalar theta, an array for an array.  Strictly
    increasing, I(-inf) = 0+, I(+inf) = inf, I(theta) - I(-theta) = 2*theta
    and I(theta) * I(-theta) = 2r.  For theta < 0 it is evaluated as
    2r / (hypot(theta, sqrt(2r)) - theta), which does not cancel.
    """
    if spec.delta_T == 0:
        raise DegenerateError("shooting function needs T_h > T_c")
    a = np.abs(theta)
    up = np.hypot(a, math.sqrt(2.0 * spec.rk)) + a
    return _ret(np.where(np.less(theta, 0.0), 2.0 * spec.rk / up, up))


def matched_initial_slope(spec: GeneratorSpec, gamma: float) -> float:
    """The unique theta* with I(theta*) = |V|/(1+gamma):
    theta* = c/2 - r/c with c = |V|/(1+gamma)."""
    if spec.V == 0:
        raise ZeroVoltage("slope matching needs V != 0")
    if not 0 <= gamma < math.inf:
        raise DomainError(f"load ratio must be finite and >= 0, got {gamma}")
    c = abs(spec.V) / (1.0 + gamma)
    if not c > spec.rk / np.finfo(float).max:
        raise NumericalBlowup(f"r / c overflows at c = |V| / (1 + gamma) = {c}")
    return 0.5 * c - spec.rk / c


def hot_side_relative_flux(spec: GeneratorSpec, gamma: float) -> float:
    """Hot-side conductive flux per unit current, -kappa(T_h) T_x(0) / J.

    Equals -theta* exactly:  -c/2 + r/c  with c = |V|/(1+gamma).
    """
    return -matched_initial_slope(spec, gamma)


def is_strictly_decreasing(spec: GeneratorSpec, gamma: float) -> bool:
    """True iff the temperature profile decreases monotonically, i.e. iff
    z * dT <= 2 * (1 + gamma)^2.  Always true at gamma_opt."""
    if spec.V == 0:
        raise ZeroVoltage("decreasing-profile criterion needs V != 0")
    if not 0 <= gamma < math.inf:
        raise DomainError(f"load ratio must be finite and >= 0, got {gamma}")
    return figure_of_merit(spec) * spec.delta_T <= 2.0 * (g1 := float(gamma) + 1.0) * g1


def sherman_relation(spec: GeneratorSpec) -> tuple[float, float]:
    """Both sides of the Sherman hot-flux relation at maximum efficiency.

    lhs: hot_side_relative_flux at gamma_opt.
    rhs: (1 - eta_max)/sqrt(1 - (1 - eta_max)^2) * sqrt(2 r), the root taken of
    eta_max (2 - eta_max), free of cancellation; DegenerateError if eta_max is 0.
    The two agree identically; returning both lets callers check the algebra
    at floating precision.
    """
    if spec.V == 0:
        raise ZeroVoltage("Sherman relation needs V != 0")
    eta_max, gamma_opt = max_efficiency(spec)
    if eta_max == 0:
        raise DegenerateError("Sherman relation needs eta_max > 0, got 0")
    lhs = hot_side_relative_flux(spec, gamma_opt)
    rhs = (1.0 - eta_max) / math.sqrt(eta_max * (2.0 - eta_max)) * math.sqrt(2 * spec.rk)
    return lhs, rhs


@dataclass(frozen=True)
class PerformanceReport:
    """Closed-form summary at one load ratio (plus the global optimum)."""

    z: float
    gamma: float
    eta_of_gamma: float
    eta_max: float
    gamma_opt: float
    hot_flux_rel: float
    decreasing: bool
    sherman_lhs: float
    sherman_rhs: float
    V: float

    def to_json(self) -> dict:
        return asdict(self)


def performance_report(spec: GeneratorSpec, gamma: float | None = None) -> PerformanceReport:
    """Evaluate every closed-form quantity; gamma defaults to gamma_opt."""
    z = figure_of_merit(spec)
    eta_max, gamma_opt = max_efficiency(spec)
    g = gamma_opt if gamma is None else gamma
    lhs, rhs = sherman_relation(spec)
    return PerformanceReport(
        z=z,
        gamma=g,
        eta_of_gamma=efficiency(spec, g),
        eta_max=eta_max,
        gamma_opt=gamma_opt,
        hot_flux_rel=hot_side_relative_flux(spec, g),
        decreasing=is_strictly_decreasing(spec, g),
        sherman_lhs=lhs,
        sherman_rhs=rhs,
        V=spec.V,
    )
