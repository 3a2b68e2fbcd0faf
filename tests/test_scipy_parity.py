"""The package's cubic Hermite spline and Brent ports against scipy, bit for
bit, and a cold CLI import that loads no scipy module."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

import tegsolve as tg
from tegsolve import loadmode
from tegsolve.errors import NumericalBlowup
from tegsolve.ivp import _Hermite

from helpers import two_solution_problem

EPS = np.finfo(float).eps


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _table(rng, n):
    """A random strictly increasing table with values and slopes."""
    x = np.cumsum(rng.uniform(1e-3, 2.0, n)) + rng.normal(scale=10.0)
    return x, rng.normal(size=n), rng.normal(size=n)


def _queries(rng, x):
    """Nodes, their float neighbours, points between nodes and past both ends."""
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                           rng.uniform(x[0], x[-1], 97),
                           rng.uniform(x[0] - 3.0, x[0], 5),
                           rng.uniform(x[-1], x[-1] + 3.0, 5)])


@pytest.mark.parametrize("seed", range(8))
def test_hermite_equals_scipy_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for n in (2, 3, 17, 400):
        x, y, d = _table(rng, n)
        ref, ours = CubicHermiteSpline(x, y, d), _Hermite(x, y, d)
        v = _queries(rng, x)
        rng.shuffle(v)
        for q in (v, v.reshape(-1, 2) if v.size % 2 == 0 else v[:, None]):
            out = ours(q)
            assert out.shape == q.shape
            assert _bits(out) == _bits(ref(q)), (seed, n, q.ndim)


@pytest.mark.parametrize("seed", range(4))
def test_flat_above_equals_scipy_extended_bit_for_bit(seed):
    # the W^-1 table's spline: a constant piece from the top node on, so the
    # top node maps to its value exactly
    rng = np.random.default_rng(100 + seed)
    x, y, d = _table(rng, 50)
    ref = CubicHermiteSpline(x, y, d, extrapolate=False)
    ref.extend(np.array([[0.0], [0.0], [0.0], [y[-1]]]), [np.nextafter(x[-1], np.inf)])
    ours = _Hermite(x, y, d, flat_above=True)
    v = np.clip(_queries(rng, x), x[0], x[-1])
    assert _bits(ours(v)) == _bits(ref(v))
    assert ours(x[-1:])[0] == y[-1]


BRACKETS = [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 3.0, -4.0, 5.0),
    (lambda x: (x - 0.3) ** 5, -1.0, 2.0),           # flat, odd-order root
    (lambda x: math.atan(50.0 * (x - 0.7)), -3.0, 4.0),
    (lambda x: x, -1.0, 1.0),
    (lambda x: x - 1.0, 0.0, 1.0),                  # root on an end
    (lambda x: 0.5 - x, 0.0, 1.0),                  # a step lands on the root
    (lambda x: x - 0.5, 0.0, 1.0),
]


@pytest.mark.parametrize("f, a, b", BRACKETS)
@pytest.mark.parametrize("xtol, rtol, maxiter", [
    (2e-12, 4 * EPS, 100), (1e-13, 4 * EPS, 200), (1e-3, 1e-6, 100), (1e-15, 4 * EPS, 5)])
def test_brentq_returns_scipys_x(f, a, b, xtol, rtol, maxiter):
    try:
        want = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except RuntimeError:  # scipy does not converge: the port raises typed
        with pytest.raises(NumericalBlowup):
            loadmode.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        return
    got = loadmode.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert type(got) is float and got == want


def test_brentq_failures_are_typed():
    f = lambda x: x - 0.3  # noqa: E731
    with pytest.raises(NumericalBlowup, match="no convergence in 1 steps"):
        loadmode.brentq(f, 0.0, 1.0, xtol=1e-15, rtol=4 * EPS, maxiter=1)
    with pytest.raises(NumericalBlowup, match="one sign"):
        loadmode.brentq(f, 0.5, 1.0, xtol=1e-15, rtol=4 * EPS, maxiter=100)
    with pytest.raises(NumericalBlowup, match="NaN"):
        loadmode.brentq(lambda x: math.nan, 0.0, 1.0, xtol=1e-15, rtol=4 * EPS,
                        maxiter=100)


MINIMA = [
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0),
    (lambda x: (x - 0.3) ** 4, -1.0, 2.0),          # flat minimum
    (lambda x: 1.0 + 1e-14 * (x - 0.5) ** 2, 0.0, 1.0),  # flat to rounding
    (lambda x: -math.sin(x), 0.0, 3.0),
    (lambda x: abs(x - 0.1), -2.0, 1.0),
    (lambda x: x, 0.0, 1.0),                        # minimum on an end
    (lambda x: 1.0, -1.0, 1.0),                     # constant
]


@pytest.mark.parametrize("f, a, b", MINIMA)
@pytest.mark.parametrize("xatol", [1e-5, 1e-12, 1e-15])
def test_minimize_bounded_returns_scipys_x(f, a, b, xatol):
    want = float(minimize_scalar(f, bounds=(a, b), method="bounded",
                                 options={"xatol": xatol}).x)
    assert loadmode.minimize_bounded(f, a, b, xatol) == want


def test_minimize_bounded_at_a_tangency_of_H():
    # the two_solutions tangency: H - |V| touches zero from one side
    prob, th1 = two_solution_problem()
    target = abs(prob.spec.V)
    g = lambda t: tg.H_of_theta(prob, t) - target  # noqa: E731
    lo, hi = th1 - 1e-3, th1 + 2e-3
    side = -1.0 if g(lo) < 0 else 1.0
    f = lambda t: side * g(t)  # noqa: E731
    want = float(minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                 options={"xatol": 1e-12}).x)
    assert loadmode.minimize_bounded(f, lo, hi, 1e-12) == want
    assert abs(want - th1) < 1e-6


def test_cold_cli_import_loads_no_scipy():
    src = str(Path(tg.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import tegsolve.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
