"""tegsolve benchmark: closed-loop CLI ops, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ratio_solve --seed 1 --seconds 36 --trace 0

One client runs one op at a time in this process: an op is one call of
``tegsolve.cli.main(argv)`` on files generated from the seed, and the next op
starts when the previous one returned and its outputs were checked.  Only
the ``cli.main`` call is timed.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every op twice, once plain and once with every layer
wrapped (order alternating), and reports the per-layer metrics plus the
tracing overhead.  The last line of stdout is the result object; the line
before it records the run's environment.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 3          # cold interpreter + package imports per run
MAX_FAILURE_NOTES = 5
# Host-speed calibration.  The shared host drifts by +-15..30% over tens of
# seconds, the same for every op of a run, which is more than the bounds a
# change is judged by.  A fixed kernel that does not touch the package is
# timed at least every CAL_EVERY_S between ops, and the op latencies of the
# run are rescaled by CAL_REF_S over the median kernel time of the run: to a
# host on which the kernel takes CAL_REF_S (its median on a 2-vCPU Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  setup_s is not
# rescaled: interpreter start-up and imports do not follow the kernel.  The
# raw times are kept in the info line.
CAL_REF_S = 2.0e-3
CAL_EVERY_S = 0.25


def _calibration_kernel() -> float:
    """Interpreter arithmetic, small-array numpy calls and scipy.quad on a
    Python callback: the kinds of work an op is made of."""
    import numpy as np
    from scipy.integrate import quad
    s = 0.0
    for i in range(5000):
        s += (i * 0.5) % 3.0
    a = np.arange(64.0)
    for _ in range(100):
        s += float(np.dot(a, a))
    for k in range(30):
        s += quad(lambda t: math.exp(-t * t) * (1.0 + k * t), 0.0, 1.0 + k)[0]
    return s


def host_speed() -> float:
    """Seconds the calibration kernel takes now (fastest of 3)."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _calibration_kernel()
        best = min(best, perf_counter() - t0)
    return best


def _measure_setup() -> list[float]:
    """Wall time of a fresh interpreter that imports the CLI (numpy, scipy
    and the whole package), SETUP_RUNS times."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tegsolve.cli"
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(perf_counter() - t0)
    return times


def _run_op(cli, op) -> tuple[float, str | None]:
    """Time one CLI call; returns (seconds, failure text or None)."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        t0 = perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # the op fails; the benchmark goes on
            code = None
            failure = traceback.format_exc(limit=3)
        elapsed = perf_counter() - t0
    if failure is None and code != 0:
        failure = f"exit code {code}: {sink_err.getvalue().strip()}"
    return elapsed, failure


def _check_op(op, worst: dict) -> str | None:
    """Run the op's output check; fold its residuals into worst."""
    from workloads import CheckFailed
    try:
        residuals = op.check(op.outdir)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"check: {type(exc).__name__}: {exc}"
    for key, value in residuals.items():
        worst[key] = max(worst.get(key, 0.0), value)
    return None


def _bytes_written(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def _environment(args) -> dict:
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tegsolve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_pinning": {v: os.environ[v] for v in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


class Run:
    """One benchmark run: the op stream, the timed loop and the tallies."""

    def __init__(self, args, workdir: Path):
        import numpy as np
        import tegsolve.cli
        import workloads
        self.args = args
        self.cli = tegsolve.cli
        self.make_ops = lambda: workloads.WORKLOADS[args.workload](
            np.random.default_rng(args.seed), workdir)
        self.records: list[dict] = []   # one per op execution
        self.failures: list[str] = []
        self.worst_residuals: dict[str, float] = {}
        self.cals: list[float] = []   # calibration kernel times

    def _execute(self, op, op_id: int, tracer=None) -> None:
        if tracer is None:
            elapsed, failure = _run_op(self.cli, op)
        else:
            with tracer.active(op.label, op_id):
                elapsed, failure = _run_op(self.cli, op)
        if failure is None:
            failure = _check_op(op, self.worst_residuals)
        rec = {"op": op_id, "label": op.label, "traced": tracer is not None,
               "seconds": elapsed, "ok": failure is None,
               "bytes": _bytes_written(op.outdir) if op.outdir.exists() else 0}
        if failure is not None and len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(f"op {op_id} ({op.label}): {failure}")
        shutil.rmtree(op.outdir, ignore_errors=True)
        self.records.append(rec)

    def warm_up(self) -> float:
        """One op, untimed and uncounted: lazy imports and first-call caches."""
        op = next(self.make_ops())
        elapsed, _ = _run_op(self.cli, op)
        shutil.rmtree(op.outdir.parent, ignore_errors=True)
        return elapsed

    def loop(self, tracer=None) -> None:
        ops = self.make_ops()
        deadline = perf_counter() + self.args.seconds
        op_id = 0
        cal_at = -math.inf
        while perf_counter() < deadline:
            if perf_counter() - cal_at >= CAL_EVERY_S:
                self.cals.append(host_speed())
                cal_at = perf_counter()
            try:
                op = next(ops)
            except Exception as exc:  # a generated problem the package rejects
                # the generator is finished after raising, so the run ends here
                self.records.append({"op": op_id, "label": "generate", "traced": False,
                                     "seconds": None, "ok": False, "bytes": 0})
                self.failures.append(f"op {op_id}: generation: {exc!r}")
                break
            if tracer is None:
                self._execute(op, op_id)
            else:
                # plain and traced executions of the same op, order alternating
                for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
                    self._execute(op, op_id, tracer if traced else None)
            shutil.rmtree(op.outdir.parent, ignore_errors=True)
            op_id += 1


def _latencies(records: list[dict], traced: bool) -> list[float]:
    return [r["seconds"] for r in records
            if r["traced"] == traced and r["seconds"] is not None]


def _timing(run: Run, setup_times: list[float], scale: float) -> dict:
    """Time metrics of the plain executions, op times multiplied by scale."""
    lat = [scale * x for x in _latencies(run.records, traced=False)]
    ok = sum(r["ok"] for r in run.records if not r["traced"])
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_per_s": ok / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * _quantile(lat, 0.9),
    }


def end_to_end_metrics(run: Run, setup_times: list[float]) -> dict:
    timing = _timing(run, setup_times, CAL_REF_S / statistics.median(run.cals))
    units = {"setup_s": "s", "throughput_ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in timing.items()}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    return metrics


def per_layer_metrics(run: Run, tracer) -> dict:
    traced = [r for r in run.records if r["traced"]]
    n = max(len(traced), 1)
    out = {}
    totals = tracer.totals()
    for name, kind, _ in tracer.layers:
        calls, _, self_s = totals[name]
        out[f"{name}.calls"] = {"value": calls / n, "unit": "count/op"}
        if kind == "span":
            out[f"{name}.self_s"] = {"value": self_s / n, "unit": "s/op"}
    solves = totals["ivp.solve_ratio_mode"][0]
    out["ivp.integrate_ivp.per_solve"] = {
        "value": totals["ivp.integrate_ivp"][0] / solves if solves else 0.0,
        "unit": "count"}
    out["io.bytes_written"] = {"value": sum(r["bytes"] for r in traced) / n,
                               "unit": "B/op"}
    t_plain = sum(_latencies(run.records, traced=False))
    t_traced = sum(_latencies(run.records, traced=True))
    out["trace.overhead_frac"] = {
        "value": t_traced / t_plain - 1.0 if t_plain > 0 else 0.0, "unit": "frac"}
    return out


def roadmap_rows(tracer) -> dict:
    """Mean inclusive ms per call of the layers the ROADMAP baseline lists."""
    def per_call(stats, name):
        st = stats.get(name)
        return 1e3 * st[1] / st[0] if st and st[0] else None

    totals = tracer.totals()
    labels = tracer.by_label()
    rows = {name: per_call(totals, name) for name in (
        "ivp.HittingTimeQuadrature.build", "ivp.HittingTimeQuadrature.y_c",
        "ivp.integrate_ivp", "ivp.solve_ratio_mode", "loadmode.enumerate_solutions",
        "io.write_csv", "cli.main")}
    rows["by_label"] = {
        label: {name: per_call(stats, name) for name in (
            "loadmode.enumerate_solutions", "ivp.HittingTimeQuadrature.build",
            "cli.main")}
        for label, stats in labels.items()}
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ratio_solve", "multiplicity_closed",
                                 "multiplicity_fallback"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tegsolve" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'tegsolve'}; run from the "
              "root of a tegsolve checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    setup_times = _measure_setup()
    import tegsolve
    if Path(tegsolve.__file__).resolve().parent != SRC / "tegsolve":
        print(f"perfbench: imported tegsolve from {tegsolve.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run = Run(args, workdir)
        warm = run.warm_up()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        run.loop(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = _latencies(run.records, traced=False)
    if not lat:
        print(f"perfbench: no op ran: {run.failures}", file=sys.stderr)
        return 1
    metrics = (per_layer_metrics(run, tracer) if tracer
               else end_to_end_metrics(run, setup_times))
    failed = sum(not r["ok"] for r in run.records)
    info = _environment(args)
    info.update({
        "setup_runs_s": setup_times,
        "raw_timing": _timing(run, setup_times, 1.0),
        "calibration_s": {"reference": CAL_REF_S, "n": len(run.cals),
                          "min": min(run.cals), "median": statistics.median(run.cals),
                          "max": max(run.cals)},
        "warm_up_s": warm,
        "ops": len(lat),
        "ops_beyond_p90": sum(x > _quantile(lat, 0.9) for x in lat),
        "ops_by_label": {lab: sum(r["label"] == lab for r in run.records
                                  if not r["traced"])
                         for lab in sorted({r["label"] for r in run.records})},
        "failures": run.failures,
        "worst_residuals": run.worst_residuals,
    })
    if tracer:
        info.update({"absent_layers": tracer.absent,
                     "missing_sites": tracer.missing_sites,
                     "roadmap_rows_ms": roadmap_rows(tracer)})
    result = {"correct": failed == 0, "attempted": len(run.records),
              "failed": failed, "metrics": metrics}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"info": info, "result": result, "ops": run.records,
         "layers_by_label": tracer.by_label() if tracer else None}, indent=1))
    if tracer:
        with gzip.open(results / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump({"fields": ["op", "span", "parent", "layer", "start", "end"],
                       "spans": tracer.spans}, fh)
    for note in run.failures:
        print(f"perfbench: failed {note}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
