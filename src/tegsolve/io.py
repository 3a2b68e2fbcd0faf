"""File formats: material definitions, run configs, CSV/JSON outputs.

CSV numbers are written with 17 significant digits so identical runs produce
byte-identical files; JSON uses sorted keys for the same reason.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError, InvalidMaterial
from .materials import (MaterialPair, from_fields, number, pair_from_json,
                        reject_unknown)

# each mode type and its own fields, besides "type"; sweep's n is a count
MODE_FIELDS = {
    "ratio": ("gamma",),
    "resistance": ("R_load",),
    "sweep": ("gamma_min", "gamma_max", "n"),
    "multiplicity": ("R_load",),
}
# each tolerance, its type and its least value; a tolerance a config leaves
# out keeps the default of the routine it goes to
TOLERANCES = {"scan_samples": (int, 2), "n_out": (int, 1),
              "sweep_gamma_max": (float, 0), "sweep_n": (int, 2)}


def write_csv(path, header: list[str], rows) -> None:
    """One line per row, every value as "%.17g" formats it (round-trip exact
    for floats, 1/0 for bools), all rows in one format pass."""
    rows = [tuple(row) for row in rows]
    line = {n: ",".join(["%.17g"] * n) + "\n" for n in set(map(len, rows))}
    template = "".join(map(line.__getitem__, map(len, rows)))
    body = template % tuple(chain.from_iterable(rows))
    Path(path).write_text(",".join(header) + "\n" + body, encoding="utf-8")


def write_json(path, obj: dict) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_json(path, error, what: str):
    """The JSON value in the file at path; error if it cannot be read as JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # missing, unreadable, bad UTF-8 or JSON
        raise error(f"cannot read {what} file {path} as JSON: {exc}") from exc


def load_material_file(path) -> MaterialPair:
    """Read a material pair from its JSON definition file."""
    return pair_from_json(_read_json(path, InvalidMaterial, "material"))


@dataclass
class RunConfig:
    """One CLI run: geometry, boundary temperatures, material file and mode.

    The fields are the config file's keys.  mode is a dict with a "type" key
    (one of MODE_FIELDS) plus that type's fields; tolerances holds optional
    overrides, the keys of TOLERANCES.  Any other key is a ConfigError.
    """

    material_file: str
    T_h: float
    T_c: float
    mode: dict
    L: float = 1.0
    A_c: float = 1.0
    output_dir: str = "out"
    tolerances: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


_FIELD_TYPES = get_type_hints(RunConfig)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def config_from_dict(data: dict) -> RunConfig:
    d = from_fields(RunConfig, data, "the config", ConfigError)
    mode = d["mode"]
    _require(isinstance(mode, dict) and "type" in mode,
             "config 'mode' must be an object with a 'type' key")
    mtype = mode["type"]
    _require(isinstance(mtype, str) and mtype in MODE_FIELDS,
             f"mode type {mtype!r} not one of {list(MODE_FIELDS)}")
    reject_unknown(f"{mtype} 'mode'", mode, ("type",) + MODE_FIELDS[mtype], ConfigError)
    for k in MODE_FIELDS[mtype]:
        _require(k in mode, f"{mtype} mode needs {k!r}")
    tol = d.get("tolerances", {})
    _require(isinstance(tol, dict), "'tolerances' must be an object")
    reject_unknown("'tolerances'", tol, TOLERANCES, ConfigError)
    d["mode"] = {k: v if k == "type" else number(f"{mtype} mode's {k!r}", v,
                                                 ConfigError, whole=k == "n")
                 for k, v in mode.items()}
    d["tolerances"] = {k: number(f"'tolerances.{k}'", v, ConfigError,
                                 whole=TOLERANCES[k][0] is int) for k, v in tol.items()}
    for k in ("material_file", "output_dir"):
        _require(isinstance(d.get(k, ""), str),
                 f"{k!r} must be a string, got {d.get(k)!r}")
    cfg = RunConfig(**{k: number(repr(k), v, ConfigError) if _FIELD_TYPES[k] is float
                       else v for k, v in d.items()})
    m = cfg.mode
    if mtype == "ratio":
        _require(m["gamma"] >= 0, "ratio mode needs gamma >= 0")
    elif mtype == "sweep":
        _require(0 <= m["gamma_min"] < m["gamma_max"],
                 "sweep mode needs 0 <= gamma_min < gamma_max")
        _require(m["n"] >= 2, "sweep mode needs n >= 2")
    else:
        _require(m["R_load"] > 0, f"{mtype} mode needs R_load > 0")
    for k, (_, least) in TOLERANCES.items():
        _require(least <= cfg.tolerances.get(k, least),
                 f"'tolerances.{k}' must be >= {least}")
    _require(cfg.T_c > 0, "need T_c > 0")
    _require(cfg.T_h >= cfg.T_c, "need T_h >= T_c")
    _require(cfg.L > 0 and cfg.A_c > 0, "need L > 0 and A_c > 0")
    return cfg


def load_config(path) -> RunConfig:
    cfg = config_from_dict(_read_json(path, ConfigError, "config"))
    # material paths are resolved relative to the config file location
    mat = Path(cfg.material_file)
    if not mat.is_absolute():
        cfg.material_file = str((Path(path).parent / mat))
    return cfg
