"""Per-layer tracing from outside the package.

Each layer is a public name of a package module.  The tracer wraps the name
at every place where the package looks it up (a module global, or an
attribute of a class), so the wrapper sees each call: ``integrate_ivp`` is
wrapped in ``tegsolve.ivp`` (used by ``solve_ratio_mode``) and in
``tegsolve.loadmode`` (used by the root materialisation); ``scipy``'s
``quad`` is wrapped where ``tegsolve.materials`` looks it up.  The package
itself carries no instrumentation.

A span layer records calls, inclusive time, self time (inclusive time minus
the time of wrapped calls made inside it) and one span per call; a count
layer records calls only, because it is called too often to time without
distorting its caller (``coupling_from`` runs 8,192 times per quadrature
build, ``value`` tens of thousands of times per op).  A site
that no longer exists is reported, not fatal: a layer none of whose sites
resolve is an absent layer and reads zero.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN, COUNT = "span", "count"

_VALUE_SITES = tuple(
    f"tegsolve.materials:{cls}.value"
    for cls in ("Constant", "Linear", "Reciprocal", "LogAffine", "ClampedLinear",
                "WiedemannFranz", "Table")
)

# (layer name, kind, lookup sites "module:attribute[.attribute]")
LAYERS = (
    ("cli.main", SPAN, ("tegsolve.cli:main",)),
    ("io.load_config", SPAN, ("tegsolve.io:load_config",)),
    ("io.load_material_file", SPAN, ("tegsolve.io:load_material_file",)),
    ("io.write_csv", SPAN, ("tegsolve.io:write_csv",)),
    ("io.write_json", SPAN, ("tegsolve.io:write_json",)),
    ("ivp.solve_ratio_mode", SPAN, ("tegsolve.ivp:solve_ratio_mode",)),
    ("ivp.integrate_ivp", SPAN, ("tegsolve.ivp:integrate_ivp",
                                 "tegsolve.loadmode:integrate_ivp")),
    ("ivp.HittingTimeQuadrature.build", SPAN,
     ("tegsolve.ivp:HittingTimeQuadrature._build",)),
    ("ivp.HittingTimeQuadrature.y_c", SPAN,
     ("tegsolve.ivp:HittingTimeQuadrature.y_c",)),
    ("loadmode.enumerate_solutions", SPAN, ("tegsolve.loadmode:enumerate_solutions",)),
    ("loadmode.brentq", SPAN, ("tegsolve.loadmode:brentq",)),
    ("loadmode.minimize_scalar", SPAN, ("tegsolve.loadmode:minimize_scalar",)),
    ("materials.quad", SPAN, ("tegsolve.materials:quad",)),
    ("materials.coupling_from", COUNT, ("tegsolve.materials:coupling_from",
                                        "tegsolve.analytic:coupling_from",
                                        "tegsolve.ivp:coupling_from")),
    ("materials.KTransform.inverse", SPAN, ("tegsolve.materials:KTransform.inverse",)),
    ("materials.KTransform.forward", SPAN, ("tegsolve.materials:KTransform.forward",)),
    ("materials.value", COUNT, _VALUE_SITES),
    ("analytic.GeneratorSpec", SPAN, ("tegsolve.analytic:GeneratorSpec.__post_init__",)),
    ("analytic.matched_initial_slope", SPAN, ("tegsolve.analytic:matched_initial_slope",
                                              "tegsolve.ivp:matched_initial_slope")),
    ("analytic.shooting_function", SPAN, ("tegsolve.analytic:shooting_function",
                                          "tegsolve.loadmode:shooting_function")),
)


def _resolve(site: str):
    """(owner, attribute, original) of a lookup site, or None if it is gone."""
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # the class's own entry, so restoring puts back exactly what was there
        original = vars(owner).get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Wraps every layer site while active and aggregates per op label.

    stats maps (op label, layer) to [calls, inclusive s, self s]; spans holds
    (op id, span id, parent span id, layer, start, end) for every span call.
    """

    def __init__(self):
        self.layers = LAYERS
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[tuple] = []
        self.present: set[str] = set()
        self.missing_sites: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._op_id = None
        self._patches: list[tuple] = []
        self._plan = []
        seen = set()
        for name, kind, sites in LAYERS:
            for site in sites:
                found = _resolve(site)
                if found is None:
                    self.missing_sites.append(site)
                elif (id(found[0]), found[1]) not in seen:
                    seen.add((id(found[0]), found[1]))
                    self.present.add(name)
                    self._plan.append((name, kind, *found))

    @property
    def absent(self) -> list[str]:
        return [name for name, _, _ in self.layers if name not in self.present]

    def _span(self, name, fn, cell):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[1]
                tracer.spans.append((tracer._op_id, sid, parent, name, t0, t1))

        return wrapper

    @staticmethod
    def _count(name, fn, cell):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def active(self, label: str, op_id: int):
        """Wrap every resolved site for the duration of one op."""
        self._op_id = op_id
        for name, kind, owner, attr, original in self._plan:
            make = self._span if kind == SPAN else self._count
            setattr(owner, attr, make(name, original, self.stats[(label, name)]))
            self._patches.append((owner, attr, original))
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
            self._stack.clear()

    def totals(self) -> dict[str, list]:
        """[calls, inclusive s, self s] per layer, summed over op labels."""
        out = {name: [0, 0.0, 0.0] for name, _, _ in self.layers}
        for (_, name), st in self.stats.items():
            for i in range(3):
                out[name][i] += st[i]
        return out

    def by_label(self) -> dict[str, dict[str, list]]:
        out: dict[str, dict[str, list]] = defaultdict(dict)
        for (label, name), st in sorted(self.stats.items()):
            out[label][name] = list(st)
        return dict(out)
