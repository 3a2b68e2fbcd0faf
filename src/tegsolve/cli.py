"""tegsolve command line: solve | report | sweep | multiplicity.

Each command reads a JSON run config (see io.RunConfig), writes CSV/JSON
outputs into the chosen directory, and exits with a code that identifies the
failure class:

    0  success
    2  config parse/validation error (also argparse usage errors)
    3  material error (file missing/unparsable, invalid or out-of-domain model)
    4  solver error (bad solver inputs, numerical failure),
       and any exception that no typed handler expects
    5  output I/O error

On failure a one-line machine-readable JSON error record is printed to
stderr: {"error": <class>, "message": <text>, "exit_code": <n>}.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analytic, io, ivp, loadmode
from .analytic import GeneratorSpec
from .errors import (
    ConfigError,
    DomainError,
    InvalidMaterial,
    NonPositiveValue,
    TegError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MATERIAL = 3
EXIT_SOLVER = 4
EXIT_IO = 5


def _error_record(exc: Exception, code: int) -> int:
    rec = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(rec, sort_keys=True), file=sys.stderr)
    return code


def _build_spec(cfg: io.RunConfig) -> GeneratorSpec:
    pair = io.load_material_file(cfg.material_file)
    return GeneratorSpec(pair=pair, T_h=cfg.T_h, T_c=cfg.T_c, L=cfg.L, A_c=cfg.A_c)


def _given(cfg: io.RunConfig, *keys: str) -> dict:
    """The tolerances among keys that the config sets; the routine they go
    to keeps its own default for the others."""
    return {k: cfg.tolerances[k] for k in keys if k in cfg.tolerances}


def _solution_meta(sol: ivp.TemperatureSolution, spec: GeneratorSpec) -> dict:
    """Every scalar field of sol that is set, eta_numeric as "eta", and V."""
    meta = {f.name: getattr(sol, f.name) for f in fields(sol)
            if f.name not in ("x", "T", "q") and getattr(sol, f.name) is not None}
    return dict(meta, eta=sol.eta_numeric, V=spec.V)


def _write_solution(outdir: Path, stem: str, sol: ivp.TemperatureSolution,
                    spec: GeneratorSpec) -> None:
    io.write_csv(outdir / f"{stem}.csv", ["x", "T", "q"],
                 zip(sol.x, sol.T, sol.q))
    io.write_json(outdir / f"{stem}.meta.json", _solution_meta(sol, spec))


def _enumerate(cfg: io.RunConfig, spec: GeneratorSpec) -> loadmode.SolutionSet:
    prob = loadmode.LoadResistanceProblem(spec=spec, R_load=cfg.mode["R_load"])
    return loadmode.enumerate_solutions(
        prob, **_given(cfg, "scan_samples", "n_out"))


def _write_multiplicity(outdir: Path, result: loadmode.SolutionSet,
                        spec: GeneratorSpec, with_curve: bool) -> None:
    cols = [f.name for f in fields(loadmode.RootRecord)
            if f.name not in ("H_residual", "solution")]
    io.write_csv(outdir / "multiplicity.csv", cols,
                 [[getattr(r, c) for c in cols] for r in result.roots])
    for i, root in enumerate(result.roots):
        _write_solution(outdir, f"solution_{i:03d}", root.solution, spec)
    if with_curve:
        d = result.scan_diagnostics
        io.write_csv(outdir / "h_curve.csv", ["theta", "H"],
                     zip(d.theta_grid, d.H_values))


def cmd_solve(cfg: io.RunConfig, spec: GeneratorSpec) -> None:
    outdir = Path(cfg.output_dir)
    if cfg.mode["type"] == "ratio":
        sol = ivp.solve_ratio_mode(spec, cfg.mode["gamma"], **_given(cfg, "n_out"))
        _write_solution(outdir, "solution", sol, spec)
    else:
        result = _enumerate(cfg, spec)
        _write_multiplicity(outdir, result, spec, with_curve=False)


def cmd_report(cfg: io.RunConfig, spec: GeneratorSpec) -> None:
    outdir = Path(cfg.output_dir)
    gamma = cfg.mode.get("gamma") if cfg.mode.get("type") == "ratio" else None
    report = analytic.performance_report(spec, gamma)
    io.write_json(outdir / "report.json", report.to_json())
    g_max = cfg.tolerances.get("sweep_gamma_max", 3.0 * report.gamma_opt)
    n = cfg.tolerances.get("sweep_n", 257)
    gammas = np.linspace(0.0, g_max, n)
    io.write_csv(outdir / "eta_sweep.csv", ["gamma", "eta"],
                 ((g, analytic.efficiency(spec, g)) for g in gammas))


def cmd_sweep(cfg: io.RunConfig, spec: GeneratorSpec) -> None:
    outdir = Path(cfg.output_dir)
    opts = _given(cfg, "n_out")
    gammas = np.linspace(cfg.mode["gamma_min"], cfg.mode["gamma_max"],
                         int(cfg.mode["n"]))
    # one quadrature build serves every gamma of the sweep
    quadrature = ivp.HittingTimeQuadrature(spec) if spec.V != 0 else None
    rows = []
    for g in gammas:
        if quadrature is None:
            sol = ivp.solve_ratio_mode(spec, float(g), **opts)
        else:
            sol = quadrature.materialize(analytic.matched_initial_slope(spec, float(g)),
                                         gamma=float(g), **opts)
        eta_cf = analytic.efficiency(spec, float(g)) if spec.V != 0 else 0.0
        rows.append((g, eta_cf, sol.eta_numeric, sol.theta, sol.y_c, sol.J,
                     sol.R_total, sol.q_h, sol.q_c))
    io.write_csv(
        outdir / "sweep.csv",
        ["gamma", "eta_closed_form", "eta_numeric", "theta", "y_c", "J",
         "R_total", "q_h", "q_c"],
        rows,
    )


def cmd_multiplicity(cfg: io.RunConfig, spec: GeneratorSpec) -> None:
    outdir = Path(cfg.output_dir)
    result = _enumerate(cfg, spec)
    _write_multiplicity(outdir, result, spec, with_curve=True)


_COMMANDS = {
    "solve": cmd_solve,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "multiplicity": cmd_multiplicity,
}
# the mode types each command serves
_MODES = {"solve": ("ratio", "resistance"), "report": tuple(io.MODE_FIELDS),
          "sweep": ("sweep",), "multiplicity": ("multiplicity",)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tegsolve",
        description="Steady states, currents and efficiency of one-dimensional "
                    "thermoelectric generators with temperature-dependent "
                    "kappa(T) and rho(T) and a constant Seebeck coefficient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve one steady state (ratio mode) or all of them "
                  "(resistance mode) and write profile CSVs"),
        ("report", "closed-form performance report (z, eta curve, optimum, "
                   "flux and profile-shape diagnostics)"),
        ("sweep", "solve over a gamma range and tabulate closed-form vs "
                  "numeric efficiency"),
        ("multiplicity", "enumerate all steady states at a fixed load "
                         "resistance, with the H-curve"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--dump-config", action="store_true",
                       help="print the normalized config and exit")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code (see the module docstring).

    Every failure prints the one-line JSON error record.  An exception that
    no typed handler expects exits 4, like a solver error, with the same
    record, so no input ends in a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # the catch-all documented above
        return _error_record(exc, EXIT_SOLVER)


def _run(args: argparse.Namespace) -> int:
    try:
        cfg = io.load_config(args.config)
    except ConfigError as exc:
        return _error_record(exc, EXIT_CONFIG)
    if args.out is not None:
        cfg.output_dir = args.out
    if args.dump_config:
        print(json.dumps(cfg.to_json(), indent=2, sort_keys=True))
        return EXIT_OK
    if cfg.mode["type"] not in _MODES[args.command]:
        return _error_record(ConfigError(
            f"{args.command} expects a {' or '.join(_MODES[args.command])} "
            f"mode, got {cfg.mode['type']!r}"), EXIT_CONFIG)

    try:
        spec = _build_spec(cfg)
    except (InvalidMaterial, DomainError, NonPositiveValue) as exc:
        return _error_record(exc, EXIT_MATERIAL)

    t0 = time.perf_counter()
    try:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, spec)
    except TegError as exc:
        return _error_record(exc, EXIT_SOLVER)
    except OSError as exc:
        return _error_record(exc, EXIT_IO)
    print(f"{args.command}: ok ({time.perf_counter() - t0:.2f} s) -> {cfg.output_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
