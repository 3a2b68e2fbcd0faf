"""Temperature-dependent material properties and their integrals.

A thermoelectric leg is described by a thermal conductivity kappa(T), an
electrical resistivity rho(T) (both strictly positive on the operating range)
and a constant Seebeck coefficient alpha0.  Everything downstream is driven by
two integrals of these models:

  * the conductivity transform  u = K(T) = T_c + \\int_{T_c}^{T} kappa(s) ds,
    which turns the divergence-form conduction term into a plain second
    derivative, and
  * the coupling integral  r = \\int rho(T) kappa(T) dT,
    which fixes the figure of merit and the shooting function.

Both, and the running coupling integral W behind the hitting-time quadrature,
come from one primitive, segment_integrals: 8-point Gauss-Legendre on every
segment between uniform nodes and the models' kink temperatures, so the
integrand is smooth on each segment and every family, closed form or not,
takes the same route.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .errors import (
    DomainError,
    InvalidMaterial,
    NonPositiveValue,
)

N_NODES = 1025   # uniform nodes behind every scalar property integral
_SEGMENT_GL_ORDER = 8  # GL nodes per segment: exact for integrands of degree <= 15


def _ret(x):
    """Return a python float for 0-d results, the ndarray otherwise."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _require_finite(model: "PropertyModel") -> None:
    """InvalidMaterial unless every parameter is finite."""
    if not all(math.isfinite(x) for v in model.params().values() for x in np.ravel(v)):
        raise InvalidMaterial(f"{model.family} family needs finite parameters, "
                              f"got {model.params()}")


@dataclass(frozen=True)
class PropertyModel:
    """Base class for positive scalar property functions of temperature.

    Subclasses provide raw evaluation (``value``) and kink temperatures
    (slope discontinuities, which every integral uses as segment ends).  A
    subclass's dataclass fields are its material-file schema: the family's
    parameters (and a pair-level partner).  Every family is monotone in T > 0
    between its kinks, or, for wiedemann_franz, positive where its partner is.
    """

    family: ClassVar[str] = "abstract"

    def value(self, T):
        raise NotImplementedError

    def kinks(self) -> tuple[float, ...]:
        return ()

    def params(self) -> dict:
        """The family's parameters: every field but partner."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "partner"}

    def to_json(self) -> dict:
        return {"family": self.family, **self.params()}


@dataclass(frozen=True)
class Constant(PropertyModel):
    c: float
    family: ClassVar[str] = "constant"

    def __post_init__(self):
        _require_finite(self)
        if self.c <= 0:
            raise InvalidMaterial(f"constant family needs c > 0, got {self.c}")

    def value(self, T):
        return _ret(self.c + 0.0 * np.asarray(T, dtype=float))


@dataclass(frozen=True)
class Linear(PropertyModel):
    """a*T + b."""

    a: float
    b: float
    family: ClassVar[str] = "linear"

    def __post_init__(self):
        _require_finite(self)
        if self.a == 0 and self.b <= 0:
            raise InvalidMaterial("linear family with a = 0 needs b > 0")
        if self.a < 0 and self.b <= 0:
            raise InvalidMaterial("linear family is never positive for a < 0, b <= 0")

    def value(self, T):
        return _ret(self.a * np.asarray(T, dtype=float) + self.b)


@dataclass(frozen=True)
class Reciprocal(PropertyModel):
    """c / T."""

    c: float
    family: ClassVar[str] = "reciprocal"

    def __post_init__(self):
        _require_finite(self)
        if self.c <= 0:
            raise InvalidMaterial(f"reciprocal family needs c > 0, got {self.c}")

    def value(self, T):
        return _ret(self.c / np.asarray(T, dtype=float))


@dataclass(frozen=True)
class LogAffine(PropertyModel):
    """c0 * (1 + c1 * ln(T / T_ref))."""

    c0: float
    c1: float
    T_ref: float
    family: ClassVar[str] = "log_affine"

    def __post_init__(self):
        _require_finite(self)
        if self.c0 <= 0:
            raise InvalidMaterial(f"log_affine family needs c0 > 0, got {self.c0}")
        if self.T_ref <= 0:
            raise InvalidMaterial(f"log_affine family needs T_ref > 0, got {self.T_ref}")

    def value(self, T):
        T = np.asarray(T, dtype=float)
        return _ret(self.c0 * (1.0 + self.c1 * np.log(T / self.T_ref)))


@dataclass(frozen=True)
class ClampedLinear(PropertyModel):
    """v_pivot below T_pivot, M*(T - T_pivot) + v_pivot above.

    With M > 0 this is nondecreasing and uniformly Lipschitz; the kink at
    T_pivot is the only slope discontinuity.
    """

    M: float
    T_pivot: float
    v_pivot: float
    family: ClassVar[str] = "clamped_linear"

    def __post_init__(self):
        _require_finite(self)
        if self.v_pivot <= 0:
            raise InvalidMaterial(f"clamped_linear needs v_pivot > 0, got {self.v_pivot}")

    def value(self, T):
        T = np.asarray(T, dtype=float)
        ramp = self.M * (T - self.T_pivot) + self.v_pivot
        return _ret(np.where(T < self.T_pivot, self.v_pivot, ramp))

    def kinks(self):
        return (self.T_pivot,)


@dataclass(frozen=True)
class WiedemannFranz(PropertyModel):
    """Lo * T / partner(T): metallic coupling to the paired property.

    The partner is bound when a MaterialPair is built, which makes the product
    rho(T)*kappa(T) = Lo*T exact by construction.
    """

    Lo: float
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

    def kinks(self):
        return self._partner().kinks()


@dataclass(frozen=True)
class Table(PropertyModel):
    """Piecewise-linear interpolation of sorted (T, value) knots.

    Outside the knot range the value is held constant (flat extrapolation), so
    the coupling integral to infinity always diverges and the transform range
    is unbounded, matching the well-posedness assumptions by construction.
    """

    knots: tuple[tuple[float, float], ...]
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

    def value(self, T):
        return _ret(np.interp(np.asarray(T, dtype=float), self._T, self._v))

    def kinks(self):
        return tuple(self._T)


# The material-file names of the families are the classes themselves.
constant, linear, reciprocal, log_affine = Constant, Linear, Reciprocal, LogAffine
clamped_linear, wiedemann_franz, table = ClampedLinear, WiedemannFranz, Table

_FAMILIES = {cls.family: cls for cls in (Constant, Linear, Reciprocal, LogAffine,
                                         ClampedLinear, WiedemannFranz, Table)}


def reject_unknown(where: str, keys, allowed, error=InvalidMaterial) -> None:
    """error naming every key outside allowed."""
    unknown = sorted(map(str, set(keys) - set(allowed)))
    if unknown:
        raise error(f"unknown key(s) {', '.join(map(repr, unknown))} in "
                    f"{where}; allowed: {', '.join(allowed)}")


def from_fields(cls, d, where: str, error=InvalidMaterial, extra=(),
                skip=()) -> dict:
    """The entries of the JSON object d that name fields of the dataclass
    cls.  error for a d that is not an object, a key that is neither a field
    (outside skip) nor in extra, and a missing field that has no default."""
    if not isinstance(d, dict):
        raise error(f"{where} must be a JSON object")
    fs = [f for f in fields(cls) if f.name not in skip]
    reject_unknown(where, d, [*extra, *(f.name for f in fs)], error)
    for f in fs:
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise error(f"{where} is missing required key {f.name!r}")
    return {f.name: d[f.name] for f in fs if f.name in d}


def number(key: str, v, error=InvalidMaterial, whole: bool = False):
    """v as a float (an int if whole); error naming key unless v is a finite
    real number, and whole if whole.  A bool, a string, NaN or inf is not."""
    try:
        x = float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else None
    except OverflowError:  # an int beyond the float range
        x = None
    if x is None or not math.isfinite(x) or whole and not x.is_integer():
        raise error(f"{key} must be a finite {'whole ' if whole else ''}number, got {v!r}")
    return int(x) if whole else x


def model_from_json(d: dict) -> PropertyModel:
    """Build a PropertyModel from its JSON dict form: "family" plus the
    family's fields."""
    if not isinstance(d, dict) or "family" not in d:
        raise InvalidMaterial("property model must be an object with a 'family' key")
    fam = d["family"]
    if not isinstance(fam, str) or fam not in _FAMILIES:
        raise InvalidMaterial(
            f"unknown property family {fam!r}; expected one of {sorted(_FAMILIES)}"
        )
    kwargs = from_fields(_FAMILIES[fam], d, f"the {fam} family", extra=("family",),
                         skip=("partner",))
    try:
        for k, v in kwargs.items():
            key = f"the {fam} family's {k!r}"
            kwargs[k] = ([[number(key, x) for x in knot] for knot in v]
                         if k == "knots" else number(key, v))
        return _FAMILIES[fam](**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidMaterial(f"bad parameters for family {fam!r}: {exc}") from exc


def finite_positive(x) -> np.ndarray:
    """Elementwise x > 0 and finite: the rule for temperatures and values."""
    return (x > 0) & (x < math.inf)


def eval_property(model: PropertyModel, T):
    """Checked property evaluation: DomainError unless every T is finite and
    > 0, NonPositiveValue unless every value is finite and > 0."""
    arr = np.asarray(T, dtype=float)
    ok = finite_positive(arr)
    if not ok.all():
        raise DomainError(f"family {model.family!r} needs finite T > 0, "
                          f"got T={arr[~ok].flat[0]}")
    with np.errstate(all="ignore"):  # an overflow or 0 / 0 is caught below
        v = np.asarray(model.value(arr), dtype=float)
    ok = finite_positive(v)
    if not ok.all():
        raise NonPositiveValue(f"family {model.family!r} needs a finite value > 0, "
                               f"got {v[~ok].flat[0]} at T={arr[~ok].flat[0]}")
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

    def validate_range(self, T_lo: float, T_hi: float) -> None:
        """DomainError unless T_lo <= T_hi, then eval_property of both
        models at T_lo, T_hi and every kink inside.  This is exact, not a
        sampling: every family is monotone between its kinks (and
        wiedemann_franz has the sign of its partner), so a model that is
        finite and > 0 at these points is so on all of [T_lo, T_hi]."""
        if not T_lo <= T_hi:
            raise DomainError(f"need T_lo <= T_hi, got [{T_lo}, {T_hi}]")
        T = np.array([T_lo, T_hi, *(t for m in (self.kappa, self.rho)
                                    for t in m.kinks() if T_lo < t < T_hi)])
        eval_property(self.kappa, T)
        eval_property(self.rho, T)

    def rho_kappa(self, T):
        """The coupling integrand rho(T) * kappa(T), unchecked."""
        return self.kappa.value(T) * self.rho.value(T)

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa.to_json(),
            "rho": self.rho.to_json(),
            "alpha0": self.alpha0,
        }


def pair_from_json(d: dict) -> MaterialPair:
    """Build a MaterialPair from its JSON form: kappa, rho and alpha0."""
    kwargs = from_fields(MaterialPair, d, "the material definition")
    return MaterialPair(
        kappa=model_from_json(kwargs["kappa"]),
        rho=model_from_json(kwargs["rho"]),
        alpha0=number("'alpha0'", kwargs["alpha0"]),
    )


_gauss_legendre = lru_cache(maxsize=8)(np.polynomial.legendre.leggauss)


def gauss_legendre_on(a: np.ndarray, b: np.ndarray, order: int):
    """order-point Gauss-Legendre on every [a_i, b_i]: the nodes, one row per
    interval, the half-widths (b - a) / 2 and the weights on [-1, 1]."""
    nodes, weights = _gauss_legendre(order)
    half = 0.5 * (b - a)
    return half[:, None] * nodes + (0.5 * (a + b))[:, None], half, weights


def segment_nodes(pair: MaterialPair, lo: float, hi: float, n: int = N_NODES,
                  extra=()) -> np.ndarray:
    """n uniform points on [lo, hi] plus every kink of kappa and rho and
    every extra temperature strictly inside, sorted."""
    pts = np.array([*pair.kappa.kinks(), *pair.rho.kinks(), *np.ravel(extra)],
                   dtype=float)
    x = np.sort(np.concatenate([np.linspace(lo, hi, n), pts[(lo < pts) & (pts < hi)]]))
    return x[np.r_[True, x[1:] != x[:-1]]]  # np.unique, without its numpy.ma import


def segment_integrals(f, grid: np.ndarray) -> np.ndarray:
    """8-point Gauss-Legendre integral of f (a function of a temperature
    array) over every segment of grid, in one array pass."""
    x, half, weights = gauss_legendre_on(grid[:-1], grid[1:], _SEGMENT_GL_ORDER)
    return half * (f(x) @ weights)


def rho_kappa_integral(pair: MaterialPair, T_lo: float, T_hi: float) -> float:
    """Coupling integral r = \\int_{T_lo}^{T_hi} rho(T) kappa(T) dT (>= 0).

    The pairwise sum of segment_integrals on N_NODES uniform nodes plus the
    kinks; the pairwise sum keeps the rounding near one ulp of r.  The range
    must pass pair.validate_range.
    """
    pair.validate_range(T_lo, T_hi)
    return float(np.sum(segment_integrals(pair.rho_kappa,
                                          segment_nodes(pair, T_lo, T_hi))))
