"""Fixed load resistance: multiple steady states and their enumeration.

Fixing the external resistance R_load (instead of the ratio gamma) changes the
nonlocal constraint to H(theta) = |V| with

    H(theta) = I(theta) + S_load * y_c(theta),     S_load = R_load * A_c / L,

where I is the closed-form shooting function and y_c the hitting time.  H is
continuous with H(-inf) = 0 and H(+inf) = inf but need not be monotone, so the
equation can have several roots: each one is a distinct steady state with its
own effective load ratio.  Since \\int_0^{y_c} rho dy = I, H = I (1 + S_load /
rho_bar) with rho_bar = I / y_c the mean resistivity along the trajectory, so
a root is the ratio-mode slope at the load ratio S_load / rho_bar, and a
closed form brackets all of them.  This module scans H over that bracket,
refines every sign change, flags near-tangent stationary points, and
materializes each root into a full temperature solution.

For a constant kappa and a resistivity clamped linear above the hot end the
trajectory is an explicit trig/parabola splice, so H(theta) has a closed
form; construct_nonunique_example picks its parameters so that H(theta1) is
explicit and descending, which guarantees several steady states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .analytic import GeneratorSpec, matched_initial_slope, shooting_function
from .errors import (DegenerateError, DomainError, InvalidMaterial, NumericalBlowup,
                     ZeroVoltage)
from .ivp import N_OUT, HittingTimeQuadrature, TemperatureSolution
from .materials import ClampedLinear, Constant, MaterialPair, segment_nodes

TOL_ROOT = 1e-9        # |H(theta) - |V|| at accepted simple roots
TOL_TANGENCY = 1e-6    # |H - |V|| below which a stationary point is a root
SCAN_SAMPLES = 2048    # default theta-scan resolution


def brentq(f, a: float, b: float, *, xtol: float, rtol: float,
           maxiter: int) -> float:
    """A root of f between a and b by Brent's method, step for step the loop
    of scipy.optimize.brentq, so the same x comes out.  NumericalBlowup for a
    NaN f, f(a) and f(b) of one sign, or no convergence in maxiter steps."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise NumericalBlowup(f"brentq: f is NaN at {a:.17g} or {b:.17g}")
    if fpre == 0 or fcur == 0:
        return float(xpre if fpre == 0 else xcur)
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericalBlowup(f"brentq: f has one sign at {a:.17g} and {b:.17g}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):  # f = 0 returns below
            xblk, fblk, spre = xpre, fpre, xcur - xpre
            scur = spre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return float(xcur)
        stry = math.inf  # bisect unless interpolation gives a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise NumericalBlowup(f"brentq: f is NaN at x={xcur:.17g}")
    raise NumericalBlowup(f"brentq: no convergence in {maxiter} steps, "
                          f"last x={xcur:.17g}")


@dataclass(frozen=True)
class LoadResistanceProblem:
    """A generator spec driven against a fixed external resistance.

    R_load = 0 degenerates to the gamma = 0 ratio mode and is permitted for
    cross-checks (H reduces to I there).
    """

    spec: GeneratorSpec
    R_load: float

    def __post_init__(self):
        if not 0 <= self.R_load < math.inf:
            raise DomainError(f"R_load must be finite and >= 0, got {self.R_load}")

    @property
    def S_load(self) -> float:
        return self.R_load * self.spec.A_c / self.spec.L

    @cached_property
    def _quadrature(self) -> HittingTimeQuadrature:
        return HittingTimeQuadrature(self.spec)


def H_of_theta(prob: LoadResistanceProblem, theta):
    """H(theta) = I(theta) + S_load * y_c(theta), y_c by the phase-space
    energy quadrature; a float for scalar theta, an array for an array."""
    if prob.spec.V == 0:
        raise ZeroVoltage("H(theta) needs V != 0")
    return (shooting_function(prob.spec, theta)
            + prob.S_load * prob._quadrature.y_c(theta))


@dataclass(frozen=True, eq=False)
class RootRecord:
    """One enumerated steady state of the fixed-load problem."""

    theta: float
    y_c: float
    R_total: float
    gamma_equiv: float
    eta: float
    tangency: bool
    H_residual: float
    solution: TemperatureSolution = field(repr=False)


@dataclass(frozen=True, eq=False)
class ScanDiagnostics:
    """Bracketing record of the H scan (also feeds the H-curve export).

    n_tangency_candidates counts the grid extrema that passed the tangency
    screen, merged_roots the sign-change cells that a tangency owns."""

    theta_lo: float
    theta_hi: float
    n_samples: int
    theta_grid: np.ndarray = field(repr=False)
    H_values: np.ndarray = field(repr=False)
    n_sign_changes: int = 0
    n_tangency_candidates: int = 0
    merged_roots: int = 0
    notes: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """All roots found at the scan resolution, sorted by theta.

    Root count is a claim at this resolution, not a global completeness
    proof; scan_diagnostics records the bracket that supports it.
    """

    roots: tuple[RootRecord, ...]
    scan_diagnostics: ScanDiagnostics

    def __len__(self):
        return len(self.roots)


def enumerate_solutions(prob: LoadResistanceProblem, *,
                        scan_samples: int = SCAN_SAMPLES,
                        n_out: int = N_OUT) -> SolutionSet:
    """Find all solutions of H(theta) = |V| at the given scan resolution.

    Every root lies inside [theta_lo, |V|/2].  Above: H >= I(theta) > 2 theta.
    Below: for theta <= 0 the trajectory stays in [T_c, T_h], so its mean
    resistivity is at least rho_min, the least rho on the nodes of
    segment_nodes there, and H <= I (1 + S_load / rho_min).  theta_lo =
    min(0, theta*) with I(theta*) = |V| / (2 (1 + S_load / rho_min)), so
    H <= |V|/2 at and below theta_lo; the factor 2 covers rho_min being taken
    on nodes.  g = H - |V| is sampled once on a uniform theta grid there.

    A grid extremum whose neighbours lie on one side of the level (else it
    sits beside a lone crossing), within one cell's rise of the level (within
    the tangency tolerance if it lies across, else its crossing pair is two
    roots), is refined to where side * (g(t + h) - g(t - h)) turns from - to
    + (side = +1 if the neighbours lie above the level, else -1; h = cbrt(eps)
    times the theta scale), bracketed by the neighbours or else, up to four
    times, by the cells beside the least of 17 samples between them.  Within
    the tangency tolerance there, it is a flagged root that owns its run of
    grid points that close to the level plus one on each side; further across
    while the grid extremum is not, it splits two simple roots the grid
    misses.  Brent's method finds the turn, and it refines those roots and
    each sign change no tangency owns to the root tolerance (a note records
    one that stays above).  TOL_TANGENCY, TOL_ROOT and the theta tolerances
    are scaled by min(1, |V|).  Raises DomainError for scan_samples < 2.
    """
    spec = prob.spec
    if spec.V == 0:
        raise ZeroVoltage("enumeration needs V != 0")
    if scan_samples < 2:
        raise DomainError(f"scan_samples must be >= 2, got {scan_samples}")
    target = abs(spec.V)

    def g(th):
        return H_of_theta(prob, th) - target

    rho_min = float(np.min(spec.pair.rho.value(
        segment_nodes(spec.pair, spec.T_c, spec.T_h))))
    # the matched slope at gamma_lo has I = |V| / (1 + gamma_lo)
    # = |V| / (2 (1 + S_load / rho_min))
    gamma_lo = 1.0 + 2.0 * prob.S_load / rho_min
    theta_lo = min(0.0, matched_initial_slope(spec, gamma_lo))
    theta_hi = 0.5 * target
    grid = np.linspace(theta_lo, theta_hi, scan_samples)
    gv = g(grid)  # one array pass
    dg = np.diff(gv)
    negative = np.signbit(gv)  # an exact zero counts as positive

    notes: list[str] = []
    found: list[tuple[float, bool, float]] = []  # (theta, tangency, |residual|)
    scale = min(1.0, target)
    tol_tangency, tol_root = TOL_TANGENCY * scale, TOL_ROOT * scale

    def root(f, lo, hi):
        return brentq(f, lo, hi, xtol=1e-13 * max(scale, abs(lo) + abs(hi)),
                      rtol=4 * np.finfo(float).eps, maxiter=200)

    def refine(lo, hi):
        th = root(g, lo, hi)
        res = g(th)
        if abs(res) > tol_root:
            notes.append(f"root at theta={th:.6g} stuck at residual {res:.3e}")
        found.append((th, False, abs(res)))

    def stationary(side, lo, hi):
        h = np.cbrt(np.finfo(float).eps) * max(scale, abs(lo) + abs(hi))
        @cache
        def slope(t):  # one 2-point call of g
            return float(side * np.diff(g(np.array([t - h, t + h])))[0])

        for _ in range(4):
            if slope(lo) < 0.0 < slope(hi):
                return root(slope, lo, hi)
            t = np.linspace(lo, hi, 17)
            k = int(np.argmin(side * g(t)))
            lo, hi = float(t[max(k - 1, 0)]), float(t[min(k + 1, 16)])
        return float(t[k])

    ext = np.flatnonzero(dg[:-1] * dg[1:] < 0.0) + 1
    rise = np.where(negative[ext] == negative[ext - 1],
                    np.maximum(np.abs(dg[ext - 1]), np.abs(dg[ext])), 0.0)
    candidates = ext[(np.abs(gv[ext]) <= rise + tol_tangency)
                     & (negative[ext - 1] == negative[ext + 1])]
    far = np.r_[0, np.flatnonzero(np.abs(gv) > tol_tangency), scan_samples - 1]
    owned = np.zeros(scan_samples, dtype=bool)
    for i in candidates:
        side = -1.0 if negative[i - 1] else 1.0
        lo, hi = float(grid[i - 1]), float(grid[i + 1])
        th = stationary(side, lo, hi)
        val = side * g(th)
        if abs(val) <= tol_tangency:
            found.append((th, True, abs(val)))
            a, b = np.searchsorted(far, i), np.searchsorted(far, i, side="right")
            owned[far[a - 1]:far[b] + 1] = True
        elif val < 0.0 and negative[i] == negative[i - 1]:
            refine(lo, th)
            refine(th, hi)

    cells = np.flatnonzero(negative[:-1] != negative[1:])
    merged = owned[cells] & owned[cells + 1]
    for i in cells[~merged]:
        refine(float(grid[i]), float(grid[i + 1]))
    roots = sorted(found, key=lambda t: t[0])

    diagnostics = ScanDiagnostics(
        theta_lo=float(theta_lo), theta_hi=float(theta_hi),
        n_samples=scan_samples, theta_grid=grid, H_values=gv + target,
        n_sign_changes=cells.size, n_tangency_candidates=candidates.size,
        merged_roots=int(merged.sum()), notes=tuple(notes),
    )

    records = []
    for th, tang, res in roots:
        sol = prob._quadrature.materialize(th, R_load=prob.R_load, n_out=n_out)
        R_int = sol.R_total - prob.R_load
        records.append(RootRecord(
            theta=th, y_c=sol.y_c, R_total=sol.R_total,
            gamma_equiv=prob.R_load / R_int, eta=sol.eta_numeric,
            tangency=tang, H_residual=res, solution=sol,
        ))
    return SolutionSet(roots=tuple(records), scan_diagnostics=diagnostics)


@dataclass(frozen=True)
class NonuniqueConstruction:
    """A fixed-load problem built to admit several steady states.

    theta1 is a guaranteed root with H'(theta1) < 0, so at least one more
    root exists above it (and one below, since H -> 0 at -inf).
    """

    problem: LoadResistanceProblem
    theta1: float
    H_prime_theta1: float


def construct_nonunique_example(kappa, T_h: float, T_c: float, rho_h: float, *,
                                L: float = 1.0, A_c: float = 1.0,
                                load_over_rho: float = 4.0) -> NonuniqueConstruction:
    """Build the clamped-resistivity nonuniqueness setup for constant kappa.

    Choices: theta1 with theta1/sqrt(theta1^2 + 2 rho_h du) = 1/2 (i.e.
    theta1^2 = 2 rho_h du / 3), ramp slope with M_hat theta1^2 / rho_h^2 = 16,
    and S_load / rho_h = load_over_rho > 51/13, which makes
    H'(theta1) = 3/2 - (13/34) * S_load/rho_h negative.  Then I(theta1) =
    3 theta1 and y_c(theta1) = (theta1 / rho_h) (1 + atan(4) / 2), and the
    voltage is set to |V| = H(theta1) exactly, so theta1 is a root by
    construction.
    """
    if not isinstance(kappa, Constant):
        raise InvalidMaterial(
            "the clamped construction needs a constant kappa (the ramp in T "
            "composes to a ramp in u only for an affine transform)"
        )
    if rho_h <= 0:
        raise InvalidMaterial(f"need rho_h > 0, got {rho_h}")
    if load_over_rho <= 51.0 / 13.0:
        raise InvalidMaterial(
            f"need S_load/rho_h > 51/13 ~ {51 / 13:.4f} for a guaranteed "
            f"descending branch, got {load_over_rho}"
        )
    du = kappa.c * (T_h - T_c)
    if du <= 0:
        raise DegenerateError("construction needs T_h > T_c")
    theta1 = math.sqrt(2.0 * rho_h * du / 3.0)
    M_hat = 16.0 * rho_h * rho_h / (theta1 * theta1)
    alpha0 = theta1 * (3.0 + load_over_rho * (1.0 + 0.5 * math.atan(4.0))) / (T_h - T_c)
    rho = ClampedLinear(M=M_hat * kappa.c, T_pivot=T_h, v_pivot=rho_h)
    spec = GeneratorSpec(pair=MaterialPair(kappa=kappa, rho=rho, alpha0=alpha0),
                         T_h=T_h, T_c=T_c, L=L, A_c=A_c)
    problem = LoadResistanceProblem(spec=spec, R_load=load_over_rho * rho_h * L / A_c)
    return NonuniqueConstruction(
        problem=problem, theta1=theta1,
        H_prime_theta1=1.5 - (13.0 / 34.0) * load_over_rho,
    )
