"""File formats: material definitions, run configs, CSV/JSON outputs.

CSV numbers are written with 17 significant digits so identical runs produce
byte-identical files; JSON uses sorted keys for the same reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, InvalidMaterial
from .materials import MaterialPair, pair_from_json

CONFIG_KEYS = ("material_file", "T_h", "T_c", "L", "A_c", "mode", "output_dir",
               "tolerances")
# each mode type and its own fields, besides "type"
MODE_FIELDS = {
    "ratio": ("gamma",),
    "resistance": ("R_load",),
    "sweep": ("gamma_min", "gamma_max", "n"),
    "multiplicity": ("R_load",),
}
TOLERANCE_KEYS = ("scan_samples", "n_out", "tol_root", "sweep_gamma_max", "sweep_n")


def fmt(x) -> str:
    """17-significant-digit float formatting (round-trip exact)."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, obj: dict) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_material_file(path) -> MaterialPair:
    """Read a material pair from its JSON definition file."""
    p = Path(path)
    if not p.exists():
        raise InvalidMaterial(f"material file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidMaterial(f"material file {p} is not valid JSON: {exc}") from exc
    return pair_from_json(data)


@dataclass
class RunConfig:
    """One CLI run: geometry, boundary temperatures, material file and mode.

    mode is a dict with a "type" key (ratio | resistance | sweep |
    multiplicity) plus the mode's parameters; tolerances holds optional
    numeric overrides (tol_root, scan_samples, n_out, and sweep_gamma_max and
    sweep_n for reports).  Any other key is a ConfigError.
    """

    material_file: str
    T_h: float
    T_c: float
    L: float = 1.0
    A_c: float = 1.0
    mode: dict = field(default_factory=dict)
    output_dir: str = "out"
    tolerances: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "material_file": self.material_file,
            "T_h": self.T_h,
            "T_c": self.T_c,
            "L": self.L,
            "A_c": self.A_c,
            "mode": dict(self.mode),
            "output_dir": self.output_dir,
            "tolerances": dict(self.tolerances),
        }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _reject_unknown(where: str, keys, allowed) -> None:
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in "
                          f"{where}; allowed: {', '.join(allowed)}")


def config_from_dict(data: dict) -> RunConfig:
    _require(isinstance(data, dict), "config must be a JSON object")
    _reject_unknown("the config", data, CONFIG_KEYS)
    for key in ("material_file", "T_h", "T_c", "mode"):
        _require(key in data, f"config is missing required key {key!r}")
    mode = data["mode"]
    _require(isinstance(mode, dict) and "type" in mode,
             "config 'mode' must be an object with a 'type' key")
    mtype = mode["type"]
    _require(isinstance(mtype, str) and mtype in MODE_FIELDS,
             f"mode type {mtype!r} not one of {list(MODE_FIELDS)}")
    _reject_unknown(f"{mtype} 'mode'", mode, ("type",) + MODE_FIELDS[mtype])
    tol = data.get("tolerances", {})
    _require(isinstance(tol, dict), "'tolerances' must be an object")
    _require("tol_ode" not in tol,
             "'tolerances.tol_ode' no longer applies: profiles come from the "
             "phase-space quadrature, which integrates no ODE")
    _reject_unknown("'tolerances'", tol, TOLERANCE_KEYS)
    try:
        cfg = RunConfig(
            material_file=str(data["material_file"]),
            T_h=float(data["T_h"]),
            T_c=float(data["T_c"]),
            L=float(data.get("L", 1.0)),
            A_c=float(data.get("A_c", 1.0)),
            mode={k: (str(v) if k == "type" else float(v) if k != "n" else int(v))
                  for k, v in mode.items()},
            output_dir=str(data.get("output_dir", "out")),
            tolerances={k: float(v) if k not in ("scan_samples", "n_out")
                        else int(v) for k, v in tol.items()},
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config has a non-numeric field: {exc}") from exc
    if mtype == "ratio":
        _require("gamma" in mode, "ratio mode needs 'gamma'")
        _require(cfg.mode["gamma"] >= 0, "ratio mode needs gamma >= 0")
    elif mtype in ("resistance", "multiplicity"):
        _require("R_load" in mode, f"{mtype} mode needs 'R_load'")
        _require(cfg.mode["R_load"] > 0, f"{mtype} mode needs R_load > 0")
    elif mtype == "sweep":
        for k in ("gamma_min", "gamma_max", "n"):
            _require(k in mode, f"sweep mode needs {k!r}")
        _require(0 <= cfg.mode["gamma_min"] < cfg.mode["gamma_max"],
                 "sweep mode needs 0 <= gamma_min < gamma_max")
        _require(cfg.mode["n"] >= 2, "sweep mode needs n >= 2")
    _require(cfg.tolerances.get("n_out", 1) >= 1, "'tolerances.n_out' must be >= 1")
    _require(cfg.tolerances.get("scan_samples", 2) >= 2,
             "'tolerances.scan_samples' must be >= 2")
    _require(cfg.T_c > 0, "need T_c > 0")
    _require(cfg.T_h >= cfg.T_c, "need T_h >= T_c")
    _require(cfg.L > 0 and cfg.A_c > 0, "need L > 0 and A_c > 0")
    return cfg


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    cfg = config_from_dict(data)
    # material paths are resolved relative to the config file location
    mat = Path(cfg.material_file)
    if not mat.is_absolute():
        cfg.material_file = str((p.parent / mat))
    return cfg
