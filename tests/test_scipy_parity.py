"""The package's cubic Hermite spline and Brent root finder against scipy,
bit for bit, a cold CLI import that loads no scipy module, and solves that
load no numpy.ma."""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq as scipy_brentq

import tegsolve as tg
from tegsolve import loadmode
from tegsolve.errors import NumericalBlowup
from tegsolve.ivp import _Hermite

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
    with pytest.raises(NumericalBlowup, match="NaN at 0 or 1"):
        loadmode.brentq(lambda x: math.nan, 0.0, 1.0, xtol=1e-15, rtol=4 * EPS,
                        maxiter=100)
    # a bracket with a sign change, and NaN at the first step inside it
    with pytest.raises(NumericalBlowup, match="NaN at x=0.29"):
        loadmode.brentq(lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan, 0.0, 1.0,
                        xtol=1e-15, rtol=4 * EPS, maxiter=100)


def test_cold_cli_import_loads_no_scipy():
    src = str(Path(tg.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import tegsolve.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_solves_load_no_numpy_ma():
    # np.unique imports numpy.ma on numpy 2.4; a ratio solve and a fixed-load
    # enumeration call it nowhere
    src = str(Path(tg.__file__).resolve().parents[1])
    configs = Path(__file__).resolve().parents[1] / "configs"
    code = textwrap.dedent(f"""
        import sys, tempfile
        sys.path.insert(0, {src!r})
        from tegsolve import cli
        loaded = []
        for cmd, config in (("solve", {str(configs / "baseline_ratio.json")!r}),
                            ("multiplicity", {str(configs / "three_solutions.json")!r})):
            with tempfile.TemporaryDirectory() as out:
                assert cli.main([cmd, "--config", config, "--out", out]) == 0
            loaded.append("numpy.ma" in sys.modules)
        print(loaded)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[False, False]"
