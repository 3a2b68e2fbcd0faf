"""Seeded inputs of the three workloads and the output check of every op.

One op is one ``tegsolve`` CLI invocation on a run config and a material
file that this module writes from the workload seed.  Each op carries its own
check, which reads back the files the op wrote and compares them with a
reference that does not come from the code path being timed.

The tolerances below are the gates documented in the package at the commit
that introduced this benchmark.  They are pinned here on purpose: a later
change that loosens a ``TOL_*`` constant in the package must not loosen the
benchmark's output checks with it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from scipy.optimize import brentq, minimize_scalar

import tegsolve as tg

TOL_ETA = 1e-6        # closed-form vs flux-ratio efficiency
TOL_BVP = 1e-8        # hot-end temperature of every written profile
# |H(theta) - |V|| of the exact H at a simple root and at a root flagged as
# a tangency, relative to max(1, |V|).  The package refines roots of its
# quadrature H to these levels in absolute terms; against the exact H the
# quadrature's own error adds ~1e-11 |V| (2.3e-9 at |V| = 237).
TOL_ROOT = 1e-9
TOL_TANGENCY = 1e-6
# |J - V/(R_total A_c)| <= TOL_J * max(|J|, 1): the acceptance rule that
# solve_ratio_mode applies (1e-8 |J|, floored at 1e4 * TOL_EVENT).  README
# states 1e-8 |J| without the floor; legs with |J| < 1 miss that by up to
# 7x at the parent commit, and each run reports the worst "J_rel".
TOL_J = 1e-8
# The cold-end temperature of a profile is the integrated T state at the
# hitting time, and no tolerance of the package bounds it.  At the parent
# commit ratio-mode profiles (tol_ode 1e-10) miss TOL_BVP on kelvin-scale
# legs: in 9,000 ops |T(L) - T_c| / max(1, T_c) exceeded 1e-8 in 8.8% and
# 1e-7 in 0.1%; the worst in 48,000 ops was 2.0e-6 (4.5e-4 K).  This gate
# only catches a broken profile; each run reports the worst "cold_abs" and
# "cold_rel".
TOL_COLD_REL = 1e-4
# theta of a fallback root against matched_initial_slope(spec, gamma_equiv),
# relative to max(1, |theta|); measured agreement is 1e-12 .. 1e-9
TOL_THETA = 1e-8
# dense reference scan of the exact clamped H for multiplicity_closed
N_REFERENCE_SCAN = 200_001

RHO_FAMILIES = ("constant", "linear", "reciprocal", "log_affine",
                "clamped_linear", "table", "wiedemann_franz")
KAPPA_FAMILIES = ("constant", "reciprocal", "linear", "table",
                  "wiedemann_franz", "log_affine", "clamped_linear")

# Material pairs whose product rho*kappa has no closed form, so every
# coupling integral goes through scipy.quad.  The root count of each pairing
# is pinned from the parent commit of the benchmark (1 root at every seed
# tried: 40 problems per pairing).
FALLBACK_PAIRS = (
    ("linear", "log_affine", 1),
    ("table", "table", 1),
    ("clamped_linear", "linear", 1),
    ("log_affine", "log_affine", 1),
)

_REPO = Path(__file__).resolve().parent.parent
BUNDLED_CLOSED = ("three_solutions", "two_solutions")


class CheckFailed(Exception):
    """An op's output files disagree with the reference."""


def _gate(residuals: dict, key: str, value: float, tol: float, what: str) -> None:
    """Record the op's worst residual under key; fail the op above tol."""
    residuals[key] = max(residuals.get(key, 0.0), value)
    if not value <= tol:
        raise CheckFailed(f"{what}: {value:.3e} > {tol:g}")


@dataclass
class Op:
    """One CLI invocation: argv for tegsolve.cli.main and its output check."""

    label: str
    argv: list[str]
    outdir: Path
    check: Callable[[Path], dict]   # raises CheckFailed; returns residuals


# ---------------------------------------------------------------------------
# material and file helpers
# ---------------------------------------------------------------------------

def model_json(rng, family: str, T_c: float, T_h: float) -> dict:
    """One property model as its JSON dict (parameter ranges of the test
    suite's randomized specs)."""
    T_m = 0.5 * (T_c + T_h)
    v = float(rng.uniform(0.5, 2.5))
    if family == "constant":
        return {"family": "constant", "c": v}
    if family == "linear":
        return {"family": "linear", "a": v * float(rng.uniform(0.2, 1.0)) / T_m,
                "b": v * float(rng.uniform(0.1, 1.0))}
    if family == "reciprocal":
        return {"family": "reciprocal", "c": v * T_m}
    if family == "log_affine":
        # T_ref <= T_c keeps the positivity threshold below the cold end
        return {"family": "log_affine", "c0": v, "c1": float(rng.uniform(0.1, 0.9)),
                "T_ref": T_c * float(rng.uniform(0.7, 1.0))}
    if family == "clamped_linear":
        return {"family": "clamped_linear",
                "M": v * float(rng.uniform(0.5, 4.0)) / max(T_h - T_c, 1e-3),
                "T_pivot": float(rng.uniform(T_c, T_h)), "v_pivot": v}
    if family == "table":
        Ts = np.linspace(0.7 * T_c, 2.5 * T_h, 9)
        vals = v * rng.uniform(0.6, 1.6, size=Ts.size)
        return {"family": "table",
                "knots": [[float(t), float(x)] for t, x in zip(Ts, vals)]}
    if family == "wiedemann_franz":
        return {"family": "wiedemann_franz", "Lo": v / T_m}
    raise ValueError(family)


def _alpha0_for(kappa: dict, rho: dict, T_c: float, T_h: float, zdT: float) -> float:
    """alpha0 > 0 that puts z * (T_h - T_c) at zdT."""
    pair = tg.pair_from_json({"kappa": kappa, "rho": rho, "alpha0": 1.0})
    r = tg.rho_kappa_integral(pair, T_c, T_h)
    return math.sqrt(zdT * r) / (T_h - T_c)


def _spec(material: dict, config: dict) -> tg.GeneratorSpec:
    return tg.GeneratorSpec(pair=tg.pair_from_json(material), T_h=config["T_h"],
                            T_c=config["T_c"], L=config["L"], A_c=config["A_c"])


def _write_op(opdir: Path, material: dict, config: dict) -> Path:
    opdir.mkdir(parents=True, exist_ok=True)
    (opdir / "material.json").write_text(json.dumps(material), encoding="utf-8")
    path = opdir / "config.json"
    path.write_text(json.dumps(dict(config, material_file="material.json")),
                    encoding="utf-8")
    return path


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _check_ends(res: dict, path: Path, T_h: float, T_c: float) -> None:
    header, rows = _read_csv(path)
    col = header.index("T")
    _gate(res, "hot_abs", abs(rows[0][col] - T_h), TOL_BVP, f"{path.name} T(0) - T_h")
    res["cold_abs"] = max(res.get("cold_abs", 0.0), abs(rows[-1][col] - T_c))
    _gate(res, "cold_rel", abs(rows[-1][col] - T_c) / max(1.0, T_c), TOL_COLD_REL,
          f"{path.name} |T(L) - T_c| / max(1, T_c)")


def _roots(outdir: Path) -> list[dict]:
    header, rows = _read_csv(outdir / "multiplicity.csv")
    return [dict(zip(header, row)) for row in rows]


def _check_solutions(res: dict, outdir: Path, n_roots: int,
                     spec: tg.GeneratorSpec) -> None:
    for i in range(n_roots):
        _check_ends(res, outdir / f"solution_{i:03d}.csv", spec.T_h, spec.T_c)


# ---------------------------------------------------------------------------
# ratio_solve
# ---------------------------------------------------------------------------

def _ratio_check(spec: tg.GeneratorSpec, gamma: float):
    def check(outdir: Path) -> dict:
        res: dict = {}
        meta = json.loads((outdir / "solution.meta.json").read_text(encoding="utf-8"))
        _gate(res, "eta_abs", abs(meta["eta"] - tg.efficiency(spec, gamma)), TOL_ETA,
              "eta vs closed form")
        _check_ends(res, outdir / "solution.csv", spec.T_h, spec.T_c)
        J = meta["J"]
        resid = abs(J - spec.V / (meta["R_total"] * spec.A_c))
        _gate(res, "J_rel", resid / abs(J), TOL_J * max(1.0, 1.0 / abs(J)),
              "|J - V/(R_total A_c)| / |J|")
        return res
    return check


def ratio_ops(rng, workdir: Path) -> Iterator[Op]:
    """Every kappa x rho family pairing in turn, each at three load ratios.

    Even materials follow the test suite's z*T_m band; odd ones have
    z*dT in (2.5, 8), and their lowest ratio gives a non-monotone profile
    (z*dT > 2(1+gamma)^2).
    """
    n_rho = len(RHO_FAMILIES)
    for idx in itertools.count():
        rho_fam = RHO_FAMILIES[idx % n_rho]
        kap_fam = KAPPA_FAMILIES[(idx // n_rho) % len(KAPPA_FAMILIES)]
        if rho_fam == kap_fam == "wiedemann_franz":
            kap_fam = "constant"
        T_c = float(rng.uniform(0.5, 400.0))
        T_h = T_c * float(rng.uniform(1.5, 3.0) if idx % 2 else rng.uniform(1.05, 3.0))
        kappa = model_json(rng, kap_fam, T_c, T_h)
        rho = model_json(rng, rho_fam, T_c, T_h)
        if idx % 2:
            zdT = float(rng.uniform(2.5, 8.0))
        else:
            zdT = float(rng.uniform(0.3, 4.0)) * (T_h - T_c) / (0.5 * (T_h + T_c))
        alpha0 = _alpha0_for(kappa, rho, T_c, T_h, zdT)
        if rng.uniform() < 0.5:
            alpha0 = -alpha0
        material = {"kappa": kappa, "rho": rho, "alpha0": alpha0}
        base = {"T_h": T_h, "T_c": T_c, "L": float(rng.uniform(0.5, 2.0)),
                "A_c": float(rng.uniform(0.5, 2.0))}
        spec = _spec(material, base)
        _, gamma_opt = tg.max_efficiency(spec)
        if idx % 2:
            low = float(rng.uniform(0.0, 0.9)) * (math.sqrt(0.5 * zdT) - 1.0)
        else:
            low = float(rng.uniform(0.1, 0.6)) * gamma_opt
        high = float(rng.uniform(1.5, 3.0)) * gamma_opt
        for j, gamma in enumerate((low, gamma_opt, high)):
            opdir = workdir / f"m{idx:05d}_{j}"
            cfg = _write_op(opdir, material,
                            dict(base, mode={"type": "ratio", "gamma": gamma}))
            yield Op(label=f"{kap_fam}*{rho_fam}",
                     argv=["solve", "--config", str(cfg), "--out", str(opdir / "res")],
                     outdir=opdir / "res", check=_ratio_check(spec, gamma))


# ---------------------------------------------------------------------------
# multiplicity_closed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClampedH:
    """Exact H(theta) of a constant-kappa leg whose rho is clamped at T_h.

    Independent of the package: the trajectory is a trig arc above u_h glued
    to a parabola below, so the hitting time is explicit.
    """

    rho_h: float
    M_hat: float
    du: float
    S_load: float

    @classmethod
    def of(cls, material: dict, config: dict) -> "ClampedH":
        kappa, rho = material["kappa"], material["rho"]
        if not (kappa["family"] == "constant" and rho["family"] == "clamped_linear"
                and rho["T_pivot"] == config["T_h"]):
            raise ValueError("closed-form H needs constant kappa and rho "
                             "clamped at T_h")
        c = kappa["c"]
        return cls(rho_h=rho["v_pivot"], M_hat=rho["M"] / c,
                   du=c * (config["T_h"] - config["T_c"]),
                   S_load=config["mode"]["R_load"] * config["A_c"] / config["L"])

    def __call__(self, theta):
        th = np.asarray(theta, dtype=float)
        disc = np.sqrt(th * th + 2.0 * self.rho_h * self.du)
        sq = math.sqrt(self.M_hat)
        arc = 2.0 / sq * np.arctan(sq * np.maximum(th, 0.0) / self.rho_h)
        y_c = np.where(th <= 0.0, (th + disc) / self.rho_h,
                       arc + (disc - th) / self.rho_h)
        return th + disc + self.S_load * y_c


def reference_root_flags(H: ClampedH, target: float) -> list[bool]:
    """Tangency flags of every root of H = target, sorted by theta, from a
    dense scan of the exact H.

    A stationary point whose value is within TOL_TANGENCY of the level is one
    tangency root, and the sign changes inside its near-level interval belong
    to it; every other sign change is one simple root.
    """
    lo = -max(1.0, math.sqrt(2.0 * H.rho_h * H.du))
    while H(lo) >= target:
        lo *= 2.0
    th = np.linspace(lo, target, N_REFERENCE_SCAN)
    g = H(th) - target
    roots: list[tuple[float, bool]] = []
    absorbed = np.zeros(th.size, dtype=bool)
    dg = np.diff(g)
    screen = 1e-3 * max(1.0, target)
    for e in np.nonzero(dg[:-1] * dg[1:] < 0.0)[0] + 1:
        if abs(g[e]) > screen:
            continue
        sign = 1.0 if dg[e - 1] < 0.0 else -1.0  # minimum of g: +1
        res = minimize_scalar(lambda t: sign * (H(t) - target),
                              bounds=(th[e - 1], th[e + 1]), method="bounded",
                              options={"xatol": 1e-13})
        if abs(H(res.x) - target) > TOL_TANGENCY:
            continue
        roots.append((float(res.x), True))
        a = b = e
        while a > 0 and abs(g[a - 1]) <= TOL_TANGENCY:
            a -= 1
        while b < th.size - 1 and abs(g[b + 1]) <= TOL_TANGENCY:
            b += 1
        absorbed[max(a - 1, 0):b + 2] = True
    negative = np.signbit(g)
    for i in np.nonzero(negative[:-1] != negative[1:])[0]:
        if not (absorbed[i] and absorbed[i + 1]):
            roots.append((float(brentq(lambda t: H(t) - target, th[i], th[i + 1])),
                          False))
    roots.sort()
    return [tang for _, tang in roots]


def _closed_check(spec: tg.GeneratorSpec, H: ClampedH):
    target = abs(spec.V)
    expected = reference_root_flags(H, target)

    def check(outdir: Path) -> dict:
        res: dict = {}
        roots = _roots(outdir)
        flags = [bool(r["tangency"]) for r in roots]
        if flags != expected:
            raise CheckFailed(f"root tangency flags {flags} vs dense scan {expected}")
        for r in roots:
            key, tol = ("H_tangency", TOL_TANGENCY) if r["tangency"] else ("H_root", TOL_ROOT)
            _gate(res, key, abs(float(H(r["theta"])) - target) / max(1.0, target), tol,
                  f"|H - |V|| / max(1, |V|) at theta={r['theta']!r}")
        _check_solutions(res, outdir, len(roots), spec)
        return res
    return check


def _bundled(name: str) -> tuple[dict, dict, Path]:
    cfg_path = _REPO / "configs" / f"{name}.json"
    config = json.loads(cfg_path.read_text(encoding="utf-8"))
    mat_path = cfg_path.parent / config["material_file"]
    material = json.loads(mat_path.read_text(encoding="utf-8"))
    config = dict({"L": 1.0, "A_c": 1.0}, **config)
    return material, config, cfg_path


def closed_ops(rng, workdir: Path) -> Iterator[Op]:
    """The two bundled clamped configs alternating with seeded
    construct_nonunique_example legs (constant kappa, rho clamped at T_h)."""
    for idx in itertools.count():
        opdir = workdir / f"c{idx:05d}"
        if idx % 2 == 0:
            name = BUNDLED_CLOSED[(idx // 2) % 2]
            material, config, cfg_path = _bundled(name)
            label = name
        else:
            c = float(rng.uniform(0.5, 2.0))
            T_c = float(rng.uniform(0.5, 300.0))
            T_h = T_c * float(rng.uniform(1.3, 2.5))
            built = tg.construct_nonunique_example(
                tg.constant(c), T_h, T_c, float(rng.uniform(0.5, 3.0)),
                L=float(rng.uniform(0.5, 2.0)), A_c=float(rng.uniform(0.5, 2.0)),
                load_over_rho=float(rng.uniform(4.5, 8.0)))
            spec = built.problem.spec
            material = spec.pair.to_json()
            config = {"T_h": T_h, "T_c": T_c, "L": spec.L, "A_c": spec.A_c,
                      "mode": {"type": "multiplicity", "R_load": built.problem.R_load}}
            cfg_path = _write_op(opdir, material, config)
            label = "constructed"
        spec = _spec(material, config)
        yield Op(label=label,
                 argv=["multiplicity", "--config", str(cfg_path), "--out", str(opdir / "res")],
                 outdir=opdir / "res",
                 check=_closed_check(spec, ClampedH.of(material, config)))


# ---------------------------------------------------------------------------
# multiplicity_fallback
# ---------------------------------------------------------------------------

def _fallback_check(spec: tg.GeneratorSpec, n_expected: int):
    def check(outdir: Path) -> dict:
        res: dict = {}
        roots = _roots(outdir)
        if len(roots) != n_expected:
            raise CheckFailed(f"{len(roots)} roots, pinned count is {n_expected}")
        for r in roots:
            ref = tg.matched_initial_slope(spec, r["gamma_equiv"])
            _gate(res, "theta_rel", abs(r["theta"] - ref) / max(1.0, abs(ref)), TOL_THETA,
                  f"theta vs matched slope at gamma_equiv={r['gamma_equiv']!r}")
        _check_solutions(res, outdir, len(roots), spec)
        return res
    return check


def fallback_ops(rng, workdir: Path) -> Iterator[Op]:
    """Kelvin-scale legs whose rho*kappa needs quadrature, each pairing in
    turn, loaded at 0.5..3 times rho(T_m) L / A_c."""
    for idx in itertools.count():
        kap_fam, rho_fam, n_roots = FALLBACK_PAIRS[idx % len(FALLBACK_PAIRS)]
        T_c = float(rng.uniform(250.0, 350.0))
        T_h = T_c * float(rng.uniform(1.6, 2.2))
        kappa = model_json(rng, kap_fam, T_c, T_h)
        rho = model_json(rng, rho_fam, T_c, T_h)
        zdT = float(rng.uniform(0.3, 4.0)) * (T_h - T_c) / (0.5 * (T_h + T_c))
        material = {"kappa": kappa, "rho": rho,
                    "alpha0": _alpha0_for(kappa, rho, T_c, T_h, zdT)}
        L, A_c = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        rho_m = tg.pair_from_json(material).rho.value(0.5 * (T_c + T_h))
        config = {"T_h": T_h, "T_c": T_c, "L": L, "A_c": A_c,
                  "mode": {"type": "multiplicity",
                           "R_load": float(rng.uniform(0.5, 3.0)) * rho_m * L / A_c}}
        opdir = workdir / f"f{idx:05d}"
        cfg_path = _write_op(opdir, material, config)
        yield Op(label=f"{kap_fam}*{rho_fam}",
                 argv=["multiplicity", "--config", str(cfg_path), "--out", str(opdir / "res")],
                 outdir=opdir / "res",
                 check=_fallback_check(_spec(material, config), n_roots))


WORKLOADS = {
    "ratio_solve": ratio_ops,
    "multiplicity_closed": closed_ops,
    "multiplicity_fallback": fallback_ops,
}
