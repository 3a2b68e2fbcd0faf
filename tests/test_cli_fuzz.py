"""Property test of the CLI contract: every input ends in a documented exit
code, and every failure in a one-line JSON error record, never a traceback."""

import contextlib
import io
import json
import math
import string
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tegsolve as tg
from tegsolve import cli, errors
from tegsolve.io import MODE_FIELDS, TOLERANCES, RunConfig

# a valid parameter set of every family, the starting point of each material
GOOD_PARAMS = {
    "constant": {"c": 1.0},
    "linear": {"a": 0.5, "b": 1.0},
    "reciprocal": {"c": 2.0},
    "log_affine": {"c0": 1.0, "c1": 0.5, "T_ref": 0.8},
    "clamped_linear": {"M": 2.0, "T_pivot": 1.5, "v_pivot": 1.0},
    "wiedemann_franz": {"Lo": 0.7},
    "table": {"knots": [[0.5, 1.0], [2.0, 3.0], [4.0, 2.0]]},
}
FAMILY_CLASSES = {c.family: c for c in (tg.Constant, tg.Linear, tg.Reciprocal,
                                        tg.LogAffine, tg.ClampedLinear,
                                        tg.WiedemannFranz, tg.Table)}
# Counts size arrays, so a huge one is a legitimate request for that much
# memory, not a malformed input: they are drawn from a small range.
COUNT_KEYS = {"scan_samples", "n_out", "sweep_n", "n"}
TEG_ERRORS = {name for name, c in vars(errors).items()
              if isinstance(c, type) and issubclass(c, errors.TegError)}

_name = st.text(alphabet=string.ascii_letters + string.digits + "_", max_size=6)
_scalar = (st.none() | st.booleans() | st.integers() | st.floats() | _name)
JSON_VALUES = st.recursive(
    _scalar, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_name, inner, max_size=3), max_leaves=6)
_non_numbers = st.none() | st.booleans() | _name | st.lists(_scalar, max_size=2)
COUNT_VALUES = st.integers(-3, 48) | st.floats(-3.0, 48.0) | _non_numbers
# JSON's Infinity, -Infinity and NaN, drawn often: no number of the schema takes them
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


def _log_uniform(lo, hi):
    """Mantissa times a power of ten: hypothesis draws the exponent's bounds
    often, where a float range of the logarithm keeps near its middle."""
    return st.builds(lambda e, m: min(max(m * 10.0 ** e, lo), hi),
                     st.integers(math.floor(math.log10(lo)), math.ceil(math.log10(hi))),
                     st.floats(1.0, 10.0))


# a small |alpha0| or a big load sends the slope far below -sqrt(2r); the wide
# ranges reach where alpha0^2, z and (gamma + 1)^2 overflow or underflow
ALPHA0 = st.builds(math.copysign, _log_uniform(1e-170, 1e170),
                   st.sampled_from([1.0, -1.0]))
GAMMA = st.floats(0.0, 4.0) | _log_uniform(4.0, 1e200)
R_LOAD = _log_uniform(1e-2, 1e3)


def _lookup(table, key, default):
    return table.get(key, default) if isinstance(key, str) else default


def _schema_keys(d, where):
    """The keys the schema allows at this place of the input."""
    if where in ("kappa", "rho"):
        cls = _lookup(FAMILY_CLASSES, d.get("family"), tg.Constant)
        return ["family"] + [f.name for f in fields(cls) if f.name != "partner"]
    if where == "material":
        return [f.name for f in fields(tg.MaterialPair)]
    if where == "config":
        return [f.name for f in fields(RunConfig)]
    if where == "mode":
        return ["type", *_lookup(MODE_FIELDS, d.get("type"), ())]
    return list(TOLERANCES)


@st.composite
def inputs(draw):
    """A command, a material and a config: a valid run with up to three keys
    deleted, set to any JSON value or added under an unknown name."""
    command = draw(st.sampled_from(["solve", "report"]))
    model = {where: {"family": fam, **GOOD_PARAMS[fam]} for where, fam in (
        ("kappa", draw(st.sampled_from(sorted(GOOD_PARAMS)))),
        ("rho", draw(st.sampled_from(sorted(GOOD_PARAMS)))))}
    material = {**model, "alpha0": draw(ALPHA0)}
    T_c = draw(st.floats(0.6, 3.0))
    mtype = draw(st.sampled_from(["ratio", "resistance"] if command == "solve"
                                 else sorted(MODE_FIELDS)))
    mode = {"type": mtype, **{"gamma": draw(GAMMA),
                              "R_load": draw(R_LOAD),
                              "gamma_min": 0.0, "gamma_max": 2.0, "n": 5}}
    mode = {k: v for k, v in mode.items() if k == "type" or k in MODE_FIELDS[mtype]}
    tolerances = {"scan_samples": draw(st.integers(2, 48)),
                  "n_out": draw(st.integers(1, 48)), "sweep_n": 9}
    config = {"material_file": "mat.json", "T_c": T_c,
              "T_h": T_c * draw(st.floats(1.0, 3.0)), "L": draw(st.floats(0.5, 2.0)),
              "A_c": draw(st.floats(0.5, 2.0)), "mode": mode, "tolerances": tolerances}
    places = {"kappa": model["kappa"], "rho": model["rho"], "material": material,
              "config": config, "mode": mode, "tolerances": tolerances}
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        where = draw(st.sampled_from(sorted(places)))
        d = places[where]
        key = draw(st.sampled_from([*_schema_keys(d, where), None])) or draw(_name)
        if key in d and draw(st.booleans()):
            del d[key]
        else:
            d[key] = draw((COUNT_VALUES if key in COUNT_KEYS else JSON_VALUES) | NON_FINITE)
    return command, material, config


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=inputs())
def test_every_input_exits_with_a_documented_code(case):
    command, material, config = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "mat.json").write_text(json.dumps(material))
        (tmp / "cfg.json").write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(tmp / "cfg.json"),
                             "--out", str(tmp / "out")])
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        record = json.loads(err.getvalue().strip().splitlines()[-1])
        assert record["exit_code"] == code
        assert set(record) == {"error", "message", "exit_code"}
        # a solver failure is a typed error, never the catch-all
        assert code != 4 or record["error"] in TEG_ERRORS, record
