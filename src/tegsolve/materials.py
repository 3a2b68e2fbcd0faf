"""Temperature-dependent material properties and the conductivity transform.

A thermoelectric leg is described by a thermal conductivity kappa(T), an
electrical resistivity rho(T) (both strictly positive on the operating range)
and a constant Seebeck coefficient alpha0.  Everything downstream is driven by
two integrals of these models:

  * the conductivity transform  u = K(T) = T_c + \\int_{T_c}^{T} kappa(s) ds,
    which turns the divergence-form conduction term into a plain second
    derivative, and
  * the coupling integral  r = \\int rho(T) kappa(T) dT,
    which fixes the figure of merit and the shooting function.

Symbolic families carry exact antiderivatives; products without a closed form
fall back to adaptive Gauss-Kronrod quadrature (scipy.integrate.quad) with the
models' kink temperatures passed as breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.integrate import quad

from .errors import (
    DomainError,
    InvalidMaterial,
    NonPositiveValue,
    RangeError,
)

# Default relative tolerance for adaptive quadrature of property products.
TOL_QUAD = 1e-10
# Default |K(T) - u| target (in u units, scaled by max(1, |u|)) for the inverse.
TOL_INVERSE = 1e-12


def _ret(x):
    """Return a python float for 0-d results, the ndarray otherwise."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _require_finite(model: "PropertyModel") -> None:
    """InvalidMaterial unless every parameter and domain_low is finite."""
    vals = [x for v in model.params().values() for x in np.ravel(v)]
    if model.domain_low is not None:
        vals.append(model.domain_low)
    if not all(math.isfinite(x) for x in vals):
        raise InvalidMaterial(f"{model.family} family needs finite parameters, "
                              f"got {model.params()}")


@dataclass(frozen=True)
class PropertyModel:
    """Base class for positive scalar property functions of temperature.

    Subclasses provide raw evaluation (``value``), an exact signed integral
    where the family admits one, kink temperatures (slope discontinuities,
    used as quadrature breakpoints), and the supremum of the temperature range
    on which the value stays positive.
    """

    family: ClassVar[str] = "abstract"
    # Families whose formula needs T > 0 (logarithms, reciprocals).
    _needs_positive_T: ClassVar[bool] = False

    def value(self, T):
        raise NotImplementedError

    def integral(self, lo: float, hi: float) -> float:
        """Signed integral of the property between two temperatures."""
        raise NotImplementedError

    def kinks(self) -> tuple[float, ...]:
        return ()

    def positivity_limit(self) -> float:
        """Supremum of T for which the value stays positive (may be inf)."""
        return math.inf

    def params(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        d = {"family": self.family}
        d.update(self.params())
        d["domain_low"] = self.domain_low
        return d


@dataclass(frozen=True)
class Constant(PropertyModel):
    c: float
    domain_low: float = 0.0
    family: ClassVar[str] = "constant"

    def __post_init__(self):
        _require_finite(self)
        if self.c <= 0:
            raise InvalidMaterial(f"constant family needs c > 0, got {self.c}")

    def value(self, T):
        return _ret(self.c + 0.0 * np.asarray(T, dtype=float))

    def integral(self, lo, hi):
        return self.c * (hi - lo)

    def params(self):
        return {"c": self.c}


@dataclass(frozen=True)
class Linear(PropertyModel):
    """a*T + b."""

    a: float
    b: float
    domain_low: float | None = None
    family: ClassVar[str] = "linear"

    def __post_init__(self):
        _require_finite(self)
        if self.a == 0 and self.b <= 0:
            raise InvalidMaterial("linear family with a = 0 needs b > 0")
        if self.a < 0 and self.b <= 0:
            raise InvalidMaterial("linear family is never positive for a < 0, b <= 0")
        if self.domain_low is None:
            low = 0.0
            if self.a > 0 and self.b < 0:
                low = -self.b / self.a  # positive only above the root
            object.__setattr__(self, "domain_low", low)

    def value(self, T):
        return _ret(self.a * np.asarray(T, dtype=float) + self.b)

    def integral(self, lo, hi):
        return 0.5 * self.a * (hi * hi - lo * lo) + self.b * (hi - lo)

    def positivity_limit(self):
        if self.a < 0:
            return -self.b / self.a
        return math.inf

    def params(self):
        return {"a": self.a, "b": self.b}


@dataclass(frozen=True)
class Reciprocal(PropertyModel):
    """c / T."""

    c: float
    domain_low: float = 0.0
    family: ClassVar[str] = "reciprocal"
    _needs_positive_T: ClassVar[bool] = True

    def __post_init__(self):
        _require_finite(self)
        if self.c <= 0:
            raise InvalidMaterial(f"reciprocal family needs c > 0, got {self.c}")

    def value(self, T):
        return _ret(self.c / np.asarray(T, dtype=float))

    def integral(self, lo, hi):
        if min(lo, hi) <= 0:
            raise DomainError("reciprocal integral needs temperatures > 0")
        return self.c * math.log(hi / lo)

    def params(self):
        return {"c": self.c}


@dataclass(frozen=True)
class LogAffine(PropertyModel):
    """c0 * (1 + c1 * ln(T / T_ref))."""

    c0: float
    c1: float
    T_ref: float
    domain_low: float | None = None
    family: ClassVar[str] = "log_affine"
    _needs_positive_T: ClassVar[bool] = True

    def __post_init__(self):
        _require_finite(self)
        if self.c0 <= 0:
            raise InvalidMaterial(f"log_affine family needs c0 > 0, got {self.c0}")
        if self.T_ref <= 0:
            raise InvalidMaterial(f"log_affine family needs T_ref > 0, got {self.T_ref}")
        if self.domain_low is None:
            low = 0.0
            if self.c1 > 0:
                # value crosses zero at T_ref * exp(-1/c1) from below
                low = self.T_ref * math.exp(-1.0 / self.c1)
            object.__setattr__(self, "domain_low", low)

    def value(self, T):
        T = np.asarray(T, dtype=float)
        return _ret(self.c0 * (1.0 + self.c1 * np.log(T / self.T_ref)))

    def integral(self, lo, hi):
        if min(lo, hi) <= 0:
            raise DomainError("log_affine integral needs temperatures > 0")

        def anti(T):
            return self.c0 * T * (1.0 - self.c1 + self.c1 * math.log(T / self.T_ref))

        return anti(hi) - anti(lo)

    def positivity_limit(self):
        if self.c1 < 0:
            return self.T_ref * math.exp(-1.0 / self.c1)
        return math.inf

    def params(self):
        return {"c0": self.c0, "c1": self.c1, "T_ref": self.T_ref}


@dataclass(frozen=True)
class ClampedLinear(PropertyModel):
    """v_pivot below T_pivot, M*(T - T_pivot) + v_pivot above.

    With M > 0 this is nondecreasing and uniformly Lipschitz; the kink at
    T_pivot is the only slope discontinuity.
    """

    M: float
    T_pivot: float
    v_pivot: float
    domain_low: float = 0.0
    family: ClassVar[str] = "clamped_linear"

    def __post_init__(self):
        _require_finite(self)
        if self.v_pivot <= 0:
            raise InvalidMaterial(f"clamped_linear needs v_pivot > 0, got {self.v_pivot}")

    def value(self, T):
        T = np.asarray(T, dtype=float)
        ramp = self.M * (T - self.T_pivot) + self.v_pivot
        return _ret(np.where(T < self.T_pivot, self.v_pivot, ramp))

    def integral(self, lo, hi):
        def anti(T):
            out = self.v_pivot * T
            if T > self.T_pivot:
                out += 0.5 * self.M * (T - self.T_pivot) ** 2
            return out

        return anti(hi) - anti(lo)

    def kinks(self):
        return (self.T_pivot,)

    def positivity_limit(self):
        if self.M < 0:
            return self.T_pivot + self.v_pivot / (-self.M)
        return math.inf

    def params(self):
        return {"M": self.M, "T_pivot": self.T_pivot, "v_pivot": self.v_pivot}


@dataclass(frozen=True)
class WiedemannFranz(PropertyModel):
    """Lo * T / partner(T): metallic coupling to the paired property.

    The partner is bound when a MaterialPair is built, which makes the product
    rho(T)*kappa(T) = Lo*T exact by construction.
    """

    Lo: float
    domain_low: float = 0.0
    partner: PropertyModel | None = None
    family: ClassVar[str] = "wiedemann_franz"

    def __post_init__(self):
        _require_finite(self)
        if self.Lo <= 0:
            raise InvalidMaterial(f"wiedemann_franz family needs Lo > 0, got {self.Lo}")

    def _partner(self):
        if self.partner is None:
            raise InvalidMaterial(
                "wiedemann_franz model must be bound to a partner via MaterialPair"
            )
        return self.partner

    def value(self, T):
        T = np.asarray(T, dtype=float)
        return _ret(self.Lo * T / np.asarray(self._partner().value(T), dtype=float))

    def integral(self, lo, hi):
        partner = self._partner()
        if lo == hi:
            return 0.0
        a, b, sign = (lo, hi, 1.0) if lo < hi else (hi, lo, -1.0)
        pts = [t for t in partner.kinks() if a < t < b]
        scale = abs(self.value(0.5 * (a + b))) * (b - a)
        val, _ = quad(
            self.value, a, b,
            epsabs=max(1e-300, 1e-13 * scale), epsrel=TOL_QUAD,
            points=pts or None, limit=200,
        )
        return sign * val

    def kinks(self):
        return self._partner().kinks()

    def params(self):
        return {"Lo": self.Lo}

    def to_json(self):
        # the partner binding is pair-level state, not part of the schema
        return {"family": self.family, "Lo": self.Lo, "domain_low": self.domain_low}


@dataclass(frozen=True)
class Table(PropertyModel):
    """Piecewise-linear interpolation of sorted (T, value) knots.

    Outside the knot range the value is held constant (flat extrapolation), so
    the coupling integral to infinity always diverges and the transform range
    is unbounded, matching the well-posedness assumptions by construction.
    """

    knots: tuple[tuple[float, float], ...]
    domain_low: float = 0.0
    family: ClassVar[str] = "table"

    def __post_init__(self):
        knots = tuple((float(t), float(v)) for t, v in self.knots)
        if len(knots) < 2:
            raise InvalidMaterial("table family needs at least 2 knots")
        Ts = [t for t, _ in knots]
        if any(t2 <= t1 for t1, t2 in zip(Ts, Ts[1:])):
            raise InvalidMaterial("table knots must be strictly increasing in T")
        if any(v <= 0 for _, v in knots):
            raise InvalidMaterial("table values must all be > 0")
        object.__setattr__(self, "knots", knots)
        _require_finite(self)

    @cached_property
    def _T(self):
        return np.array([t for t, _ in self.knots])

    @cached_property
    def _v(self):
        return np.array([v for _, v in self.knots])

    @cached_property
    def _cum(self):
        # exact integral of the piecewise-linear interpolant at each knot
        seg = 0.5 * (self._v[1:] + self._v[:-1]) * np.diff(self._T)
        return np.concatenate([[0.0], np.cumsum(seg)])

    def value(self, T):
        return _ret(np.interp(np.asarray(T, dtype=float), self._T, self._v))

    def _anti(self, T):
        Ts, vs, cum = self._T, self._v, self._cum
        if T <= Ts[0]:
            return vs[0] * (T - Ts[0])
        if T >= Ts[-1]:
            return cum[-1] + vs[-1] * (T - Ts[-1])
        i = int(np.searchsorted(Ts, T, side="right") - 1)
        t = T - Ts[i]
        slope = (vs[i + 1] - vs[i]) / (Ts[i + 1] - Ts[i])
        return cum[i] + vs[i] * t + 0.5 * slope * t * t

    def integral(self, lo, hi):
        return self._anti(hi) - self._anti(lo)

    def kinks(self):
        return tuple(self._T)

    def params(self):
        return {"knots": [[t, v] for t, v in self.knots]}


# Factory helpers mirroring the family names used in material files.

def constant(c, domain_low=0.0):
    return Constant(c=c, domain_low=domain_low)


def linear(a, b, domain_low=None):
    return Linear(a=a, b=b, domain_low=domain_low)


def reciprocal(c, domain_low=0.0):
    return Reciprocal(c=c, domain_low=domain_low)


def log_affine(c0, c1, T_ref, domain_low=None):
    return LogAffine(c0=c0, c1=c1, T_ref=T_ref, domain_low=domain_low)


def clamped_linear(M, T_pivot, v_pivot, domain_low=0.0):
    return ClampedLinear(M=M, T_pivot=T_pivot, v_pivot=v_pivot, domain_low=domain_low)


def wiedemann_franz(Lo, domain_low=0.0):
    return WiedemannFranz(Lo=Lo, domain_low=domain_low)


def table(knots, domain_low=0.0):
    return Table(knots=tuple(tuple(k) for k in knots), domain_low=domain_low)


_FAMILIES = {
    "constant": (Constant, ("c",)),
    "linear": (Linear, ("a", "b")),
    "reciprocal": (Reciprocal, ("c",)),
    "log_affine": (LogAffine, ("c0", "c1", "T_ref")),
    "clamped_linear": (ClampedLinear, ("M", "T_pivot", "v_pivot")),
    "wiedemann_franz": (WiedemannFranz, ("Lo",)),
    "table": (Table, ("knots",)),
}


def model_from_json(d: dict) -> PropertyModel:
    """Build a PropertyModel from its JSON dict form."""
    if not isinstance(d, dict) or "family" not in d:
        raise InvalidMaterial("property model must be an object with a 'family' key")
    fam = d["family"]
    if fam not in _FAMILIES:
        raise InvalidMaterial(
            f"unknown property family {fam!r}; expected one of {sorted(_FAMILIES)}"
        )
    cls, keys = _FAMILIES[fam]
    kwargs = {}
    for k in keys:
        if k not in d:
            raise InvalidMaterial(f"{fam} family is missing parameter {k!r}")
        kwargs[k] = d[k]
    try:
        if fam == "table":
            kwargs["knots"] = tuple(tuple(k) for k in kwargs["knots"])
        if "domain_low" in d and d["domain_low"] is not None:
            kwargs["domain_low"] = float(d["domain_low"])
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InvalidMaterial(f"bad parameters for family {fam!r}: {exc}") from exc


def eval_property(model: PropertyModel, T):
    """Checked property evaluation: domain guard plus strict positivity.

    Raises DomainError below domain_low (or at T <= 0 for families that need a
    positive temperature) and NonPositiveValue if the formula or table yields
    a value <= 0.
    """
    arr = np.asarray(T, dtype=float)
    if np.any(arr < model.domain_low):
        raise DomainError(
            f"temperature {arr.min() if arr.ndim else float(arr)} below "
            f"domain_low={model.domain_low} for family {model.family!r}"
        )
    if model._needs_positive_T and np.any(arr <= 0):
        raise DomainError(f"family {model.family!r} needs T > 0")
    v = model.value(arr)
    if np.any(np.asarray(v) <= 0):
        raise NonPositiveValue(
            f"family {model.family!r} evaluated to a non-positive value"
        )
    return _ret(v)


@dataclass(frozen=True)
class MaterialPair:
    """kappa(T), rho(T) and the constant Seebeck coefficient alpha0.

    A wiedemann_franz member is bound to the other property at construction;
    two wiedemann_franz members would be circular and are rejected.
    """

    kappa: PropertyModel
    rho: PropertyModel
    alpha0: float

    def __post_init__(self):
        k_wf = isinstance(self.kappa, WiedemannFranz)
        r_wf = isinstance(self.rho, WiedemannFranz)
        if not math.isfinite(self.alpha0):
            raise InvalidMaterial(f"alpha0 must be finite, got {self.alpha0}")
        if k_wf and r_wf:
            raise InvalidMaterial("kappa and rho cannot both be wiedemann_franz")
        if k_wf and self.kappa.partner is None:
            object.__setattr__(self, "kappa", replace(self.kappa, partner=self.rho))
        if r_wf and self.rho.partner is None:
            object.__setattr__(self, "rho", replace(self.rho, partner=self.kappa))

    @property
    def domain_low(self) -> float:
        return max(self.kappa.domain_low, self.rho.domain_low)

    def validate_range(self, T_lo: float, T_hi: float, n_probe: int = 17) -> None:
        """Check both models are defined and positive on [T_lo, T_hi]."""
        if T_lo < self.domain_low:
            raise DomainError(
                f"[{T_lo}, {T_hi}] not contained in the models' valid domain "
                f"(domain_low={self.domain_low})"
            )
        probes = np.linspace(T_lo, T_hi, n_probe)
        kinks = [t for m in (self.kappa, self.rho) for t in m.kinks() if T_lo < t < T_hi]
        if kinks:
            probes = np.concatenate([probes, kinks])
        eval_property(self.kappa, probes)
        eval_property(self.rho, probes)

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa.to_json(),
            "rho": self.rho.to_json(),
            "alpha0": self.alpha0,
        }


def pair_from_json(d: dict) -> MaterialPair:
    for key in ("kappa", "rho", "alpha0"):
        if key not in d:
            raise InvalidMaterial(f"material definition is missing key {key!r}")
    try:
        alpha0 = float(d["alpha0"])
    except (TypeError, ValueError) as exc:
        raise InvalidMaterial(f"alpha0 must be a number: {exc}") from exc
    return MaterialPair(
        kappa=model_from_json(d["kappa"]),
        rho=model_from_json(d["rho"]),
        alpha0=alpha0,
    )


def _closed_form_product(f: PropertyModel, g: PropertyModel, lo: float, hi: float):
    """Exact product integral for the symbolic combinations that admit one.

    Returns None when no closed form is known and quadrature should be used.
    """
    if isinstance(f, WiedemannFranz) or isinstance(g, WiedemannFranz):
        wf = f if isinstance(f, WiedemannFranz) else g
        # product with the bound partner collapses to Lo * T exactly
        return 0.5 * wf.Lo * (hi * hi - lo * lo)
    if isinstance(f, Constant):
        return f.c * g.integral(lo, hi)
    if isinstance(g, Constant):
        return g.c * f.integral(lo, hi)
    if isinstance(g, Reciprocal):
        f, g = g, f
    if isinstance(f, Reciprocal):
        if isinstance(g, Linear):
            return f.c * (g.a * (hi - lo) + g.b * math.log(hi / lo))
        if isinstance(g, Reciprocal):
            return f.c * g.c * (1.0 / lo - 1.0 / hi)
        if isinstance(g, LogAffine):
            # (c/T) * c0*(1 + c1*ln(T/T_ref)) integrates in ln(T/T_ref)
            def anti(T):
                s = math.log(T / g.T_ref)
                return f.c * g.c0 * (s + 0.5 * g.c1 * s * s)

            return anti(hi) - anti(lo)
    if isinstance(f, Linear) and isinstance(g, Linear):
        a1, b1, a2, b2 = f.a, f.b, g.a, g.b

        def anti(T):
            return a1 * a2 * T ** 3 / 3.0 + 0.5 * (a1 * b2 + a2 * b1) * T * T + b1 * b2 * T

        return anti(hi) - anti(lo)
    return None


def rho_kappa_integral(pair: MaterialPair, T_lo: float, T_hi: float,
                       tol: float = TOL_QUAD) -> float:
    """Coupling integral r = \\int_{T_lo}^{T_hi} rho(T) kappa(T) dT (>= 0).

    Uses exact closed forms for symbolic family products where available,
    adaptive quadrature with kink breakpoints otherwise.
    """
    if T_lo > T_hi:
        raise DomainError(f"need T_lo <= T_hi, got [{T_lo}, {T_hi}]")
    if T_lo < pair.domain_low:
        raise DomainError(
            f"[{T_lo}, {T_hi}] outside the models' valid domain "
            f"(domain_low={pair.domain_low})"
        )
    if T_lo == T_hi:
        return 0.0
    cf = _closed_form_product(pair.kappa, pair.rho, T_lo, T_hi)
    if cf is not None:
        return cf

    def f(T):
        return pair.kappa.value(T) * pair.rho.value(T)

    pts = sorted({t for m in (pair.kappa, pair.rho) for t in m.kinks()
                  if T_lo < t < T_hi})
    scale = abs(f(0.5 * (T_lo + T_hi))) * (T_hi - T_lo)
    val, _ = quad(f, T_lo, T_hi, epsabs=max(1e-300, 1e-13 * scale),
                  epsrel=tol, points=pts or None, limit=200)
    return val


def coupling_from(pair: MaterialPair, T_base: float, T: float,
                  tol: float = TOL_QUAD) -> float:
    """Signed coupling integral \\int_{T_base}^{T} rho kappa dT."""
    if T >= T_base:
        return rho_kappa_integral(pair, T_base, T, tol)
    return -rho_kappa_integral(pair, T, T_base, tol)


@dataclass(frozen=True)
class KTransform:
    """The conductivity transform u = K(T) = T_c + \\int_{T_c}^T kappa(s) ds.

    K is a strictly increasing diffeomorphism of [T_c, sup-domain) onto
    [T_c, K_infinity); the inverse is computed by a bracketed Newton iteration
    (derivative = kappa) with bisection fallback.
    """

    kappa: PropertyModel
    T_c: float

    def __post_init__(self):
        if self.T_c <= 0:
            raise DomainError(f"base temperature must be > 0, got {self.T_c}")
        if self.kappa.domain_low > self.T_c:
            raise DomainError(
                f"kappa domain_low={self.kappa.domain_low} exceeds T_c={self.T_c}"
            )
        eval_property(self.kappa, self.T_c)  # must be positive at the base

    @cached_property
    def K_infinity(self) -> float:
        """Supremum of K; finite only when kappa loses positivity at finite T."""
        limit = self.kappa.positivity_limit()
        if math.isinf(limit):
            return math.inf
        return self.T_c + self.kappa.integral(self.T_c, limit)

    def forward(self, T: float) -> float:
        """u = K(T).  DomainError below T_c."""
        if T < self.T_c:
            raise DomainError(f"K(T) needs T >= T_c={self.T_c}, got {T}")
        limit = self.kappa.positivity_limit()
        if T >= limit:
            raise NonPositiveValue(
                f"kappa is not positive at T={T} (limit {limit}); K undefined"
            )
        return self.T_c + self.kappa.integral(self.T_c, T)

    def forward_many(self, T) -> np.ndarray:
        """K at many temperatures; exact segment-cumulative evaluation."""
        T = np.asarray(T, dtype=float)
        order = np.argsort(T)
        out = np.empty_like(T)
        prev_T, prev_u = self.T_c, self.T_c
        for idx in order:
            t = float(T[idx])
            if t < self.T_c:
                raise DomainError(f"K(T) needs T >= T_c={self.T_c}, got {t}")
            prev_u = prev_u + self.kappa.integral(prev_T, t)
            prev_T = t
            out[idx] = prev_u
        return out

    def inverse(self, u: float, tol: float = TOL_INVERSE) -> float:
        """T = K^{-1}(u) with |K(T) - u| <= tol * max(1, |u|)."""
        if u < self.T_c:
            raise RangeError(f"u={u} below the transform range start {self.T_c}")
        if u >= self.K_infinity:
            raise RangeError(f"u={u} at or above K_infinity={self.K_infinity}")
        if u == self.T_c:
            return self.T_c
        if isinstance(self.kappa, Constant):
            return self.T_c + (u - self.T_c) / self.kappa.c

        # expand a bracket [lo, hi] with K(hi) >= u
        lo, f_lo = self.T_c, self.T_c - u  # f(T) = K(T) - u
        step = max(1.0, (u - self.T_c) / max(self.kappa.value(self.T_c), 1e-300))
        hi = self.T_c
        f_hi = f_lo
        limit = self.kappa.positivity_limit()
        for _ in range(200):
            hi_new = hi + step
            if hi_new >= limit:
                hi_new = hi + 0.5 * (limit - hi)
            f_hi = f_hi + self.kappa.integral(hi, hi_new)
            hi = hi_new
            if f_hi >= 0:
                break
            step *= 2.0
        else:
            raise RangeError(f"could not bracket K^{{-1}}({u})")

        target = tol * max(1.0, abs(u))
        T = min(max(lo + (u - self.T_c) / max(self.kappa.value(lo), 1e-300), lo), hi)
        f_T = self.forward(T) - u
        for _ in range(200):
            if abs(f_T) <= target:
                return T
            if f_T > 0:
                hi, f_hi = T, f_T
            else:
                lo, f_lo = T, f_T
            dk = self.kappa.value(T)
            T_new = T - f_T / dk if dk > 0 else 0.5 * (lo + hi)
            if not (lo < T_new < hi):
                T_new = 0.5 * (lo + hi)
            f_T = f_T + self.kappa.integral(T, T_new)
            T = T_new
        raise RangeError(f"K inverse did not converge for u={u}")
