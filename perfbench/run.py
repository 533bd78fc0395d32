#!/usr/bin/env python3
"""The musel benchmark: one workload, one seed, measured for --seconds.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim-reduced --seed 1 --seconds 20 --trace 0

Workloads: sim-reduced, estimate-p500, sens-fixedpoint (see README.md).

``--trace 0`` measures the end-to-end metrics with tracing off: a closed
loop over the workload's units until ``--seconds`` have passed, with
set-up runs (fresh interpreters) between the units, then the output
checks.  ``--trace 1`` runs a fixed list of units three times (traced
while keeping the LPs, untraced, traced) and reports the per-layer
metrics of the last pass, the tracing overhead, and HiGHS time on the
kept LPs; its counters must repeat exactly between the two traced passes.

Human-readable lines go first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the metrics
and their units are those BENCHMARK.json lists.  Spans and the
environment block are also written to perfbench/out/ when the run ends.
The program is imported from ./src of the checkout the script sits in;
without it the script exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKERS = os.cpu_count() or 1
SETUP_PER_UNIT = 2
SETUP_MIN = 15
SETUP_CODE = (
    "import numpy as np\n"
    "import musel\n"
    "from musel.lp import LinearProgram, solve_lp\n"
    "sol = solve_lp(LinearProgram(c=np.ones(2), A_ub=-np.eye(2),"
    " b_ub=-np.ones(2), lower=np.zeros(2)))\n"
    "assert sol.optimal\n"
)

def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def metric_units(trace):
    """name -> unit of the metrics a run reports, as BENCHMARK.json lists
    them: the end-to-end ones, or with ``trace`` the per-layer ones."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def load_program():
    """Import musel from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "musel", "__init__.py")):
        fail(f"no musel source under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import musel
    if not os.path.abspath(musel.__file__).startswith(SRC + os.sep):
        fail(f"imported musel from {musel.__file__}, not from {SRC}")


def _blas_threads():
    """Threads OpenBLAS uses in this process, read from the library itself."""
    import ctypes
    import glob

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return "unknown"


def _blas_version():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() or "unknown"


def environment():
    import numpy

    from musel import _accel
    return {
        "backend": _accel.backend_name(),
        "numpy": numpy.__version__,
        "blas": _blas_version(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def setup_once(env):
    """Seconds for a fresh interpreter to import musel and finish one tiny solve."""
    from workloads import run_child
    t0 = time.monotonic()
    code, err = run_child([sys.executable, "-c", SETUP_CODE], env, timeout=60)
    if code != 0:
        fail(f"set-up run exited {code}: {err.strip()[-300:]}")
    return time.monotonic() - t0


def cpu_seconds(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class Phase:
    """One pass of the closed loop: per-operation records, per-unit totals."""

    def __init__(self):
        self.records = []      # (latency_s, ok) per operation
        self.infeasible = 0    # operations whose right answer is INFEASIBLE
        self.units = []        # (operations, wall_s, cpu_s) per unit
        self.wall = 0.0

    @property
    def ops(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for _, ok in self.records if not ok)

    @property
    def ops_per_s(self):
        return self.ops / sum(wall for _, wall, _ in self.units)

    @property
    def cpu_s_per_op(self):
        return sum(cpu for _, _, cpu in self.units) / self.ops


def run_units(w, digests, units=None, seconds=None, tracer=None,
              lpcheck=None, captured=None, before_unit=None):
    """Closed loop over ``units``, or over 0, 1, 2, ... until ``seconds`` pass.

    A unit that comes round again must give the bytes it gave before.  With
    ``captured`` (a dict), the LPs each unit solves are kept under its index.
    ``before_unit()`` runs before each unit, outside the unit's wall and CPU
    time.
    """
    phase = Phase()
    t0 = time.monotonic()
    i = 0
    while True:
        if units is not None:
            if i >= len(units):
                break
            u = units[i]
        else:
            if i > 0 and time.monotonic() - t0 >= seconds:
                break
            u = i
        if before_unit is not None:
            before_unit()
        if captured is not None:
            lpcheck.captured, lpcheck.capture = [], True
        start, cpu0 = time.monotonic(), cpu_seconds(w.cpu_who)
        infeasible0 = w.infeasible
        try:
            recs, digest = w.run_unit(u, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            recs, digest = [(time.monotonic() - start, False)] * w.ops_in(u), None
        phase.units.append((len(recs), time.monotonic() - start,
                            cpu_seconds(w.cpu_who) - cpu0))
        if captured is not None:
            captured[u], lpcheck.capture = lpcheck.captured, False
        phase.records.extend(recs)
        phase.infeasible += w.infeasible - infeasible0
        if digest is None:
            if units is not None:
                w.errors.append(f"unit {u} gave no output on a repeat run")
        elif digests.setdefault(u % w.cycle, digest) != digest:
            w.errors.append(f"unit {u}: output bytes differ from an earlier "
                            "run of the same inputs")
        i += 1
    phase.wall = time.monotonic() - t0
    return phase


def end_to_end(phase, setup_s, peak_rss_mb):
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(t for t, _ in phase.records) * 1e3,
        "cpu_s_per_op": phase.cpu_s_per_op,
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def timed_run(w, seconds, lpcheck, digests):
    """--trace 0: the timed closed loop, then one unit again.

    Set-up time is sampled by SETUP_PER_UNIT fresh interpreters before each
    unit, so that its median sees the same slow and fast stretches of the
    host as the workload; starts are added after the loop up to SETUP_MIN.
    Returns (end-to-end metrics, notes, timed phase, LPs of the re-run unit).
    """
    import numpy as np

    from workloads import child_env

    env = child_env()
    setup_all = []

    def before_unit():
        setup_all.extend(setup_once(env) for _ in range(SETUP_PER_UNIT))

    phase = run_units(w, digests, seconds=seconds, lpcheck=lpcheck,
                      before_unit=before_unit)
    while len(setup_all) < SETUP_MIN:
        setup_all.append(setup_once(env))
    metrics = end_to_end(phase, statistics.median(setup_all),
                         peak_rss_mb(w.cpu_who))
    captured = {}
    run_units(w, digests, units=w.check_units, lpcheck=lpcheck, captured=captured)
    lat = [t for t, _ in phase.records]
    p90 = float(np.percentile(lat, 90))
    notes = {
        "setup_runs_s": setup_all,
        "ops": phase.ops,
        "units": len(phase.units),
        "timed_s": phase.wall,
        "unit_ops_wall_cpu": phase.units,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(1 for t in lat if t > p90),
    }
    return metrics, notes, [phase], captured


def traced_run(w, lpcheck, digests):
    """--trace 1: passes A (traced, LPs kept), untraced, B (traced).

    A absorbs first-run costs and feeds HiGHS; the per-layer metrics come
    from B.  Returns (per-layer metrics, spans, passes, LPs of pass A).
    """
    import layers
    import probes
    from spans import Patcher, Tracer

    tracer = Tracer()

    def traced_pass(captured=None):
        patcher = Patcher()
        lpcheck.tracer = tracer
        probes.install_tracing(patcher, tracer)
        try:
            return run_units(w, digests, units=w.trace_units, tracer=tracer,
                             lpcheck=lpcheck, captured=captured)
        finally:
            patcher.restore()
            lpcheck.tracer = None

    captured = {}
    traced_a = traced_pass(captured)
    mark = len(tracer.spans)
    untraced = run_units(w, digests, units=w.trace_units, lpcheck=lpcheck)
    traced_b = traced_pass()
    metrics = layers.layer_metrics(tracer.spans[mark:], traced_b.wall, WORKERS)
    counts_a = layers.layer_metrics(tracer.spans[:mark], traced_a.wall, WORKERS)
    for key in layers.EXACT:
        if counts_a[key] != metrics[key]:
            w.errors.append(f"{key} differs between two traced passes: "
                            f"{counts_a[key]} != {metrics[key]}")
    metrics["trace.ops"] = traced_b.ops
    metrics["trace.ops_per_s"] = traced_b.ops_per_s
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s
    metrics["trace.overhead_ops_per_s"] = untraced.ops_per_s - traced_b.ops_per_s
    return metrics, tracer.spans, [traced_a, untraced, traced_b], captured


def run(args):
    units = metric_units(args.trace)
    load_program()
    import numpy as np

    import oracle
    import probes
    from musel.lp import LinearProgram, solve_lp
    from spans import Patcher
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    env = environment()
    patcher = Patcher()
    notes, spans = {}, []
    try:
        w = WORKLOADS[args.workload](args.seed, workdir, WORKERS)
        lpcheck = probes.LpCheck()
        probes.install_lp(patcher, lpcheck)
        w.install(patcher)
        # lazy start-up (BLAS thread pool, first-call paths) before timing
        np.ones((256, 256)) @ np.ones((256, 256))
        solve_lp(LinearProgram(c=np.ones(2), A_ub=-np.eye(2),
                               b_ub=-np.ones(2), lower=np.zeros(2)))
        digests = {}
        if args.trace == 0:
            metrics, notes, measured, captured = timed_run(
                w, args.seconds, lpcheck, digests)
        else:
            metrics, spans, measured, captured = traced_run(w, lpcheck, digests)
        scipy_version = oracle.version()
        if scipy_version:
            highs = w.highs_check(captured)
            rejected, _ = oracle.check_pairs(lpcheck.rejected)
            w.errors.extend(rejected)
            env["highs"] = f"scipy {scipy_version}"
        else:
            highs = []
            env["highs"] = "unavailable: objective comparison skipped"
        if args.trace == 1:
            metrics["lp.highs_ms_per_solve"] = (statistics.mean(highs) * 1e3
                                                if highs else 0.0)
        w.final_checks()
        errors = w.errors + lpcheck.errors
    finally:
        patcher.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.ops for p in measured)
    failed = sum(p.failed for p in measured)
    infeasible = sum(p.infeasible for p in measured)
    unmeasured = [name for name in units if name not in metrics]
    if unmeasured:
        fail(f"BENCHMARK.json lists metrics this run does not measure: {unmeasured}")
    print(f"musel benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>14.6g} {unit}")
    if notes:
        print(f"  op_p90_ms {notes['op_p90_ms']:.6g} ms, not gated: "
              f"{notes['beyond_p90']} of {notes['ops']} samples lie beyond it")
        print(f"  {notes['ops']} operations in {notes['units']} units, "
              f"{notes['timed_s']:.2f} s; setup_s is the median of "
              f"{len(notes['setup_runs_s'])} interpreter starts")
    print(f"  fail_frac {failed / attempted if attempted else 0.0:.4f} "
          f"({failed} of {attempted} operations failed; {infeasible} "
          f"ended INFEASIBLE, checked with HiGHS, and count as done)")
    for e in errors[:20]:
        print(f"  CHECK FAILED: {e}")
    print(f"  output check: {'passed' if not errors else f'{len(errors)} failures'}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    sidecar = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(sidecar, "w") as fh:
        json.dump({"environment": env, "result": result, "notes": notes,
                   "errors": errors, "spans": [sp.to_dict() for sp in spans]}, fh)
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sim-reduced", "estimate-p500", "sens-fixedpoint"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(ap.parse_args())


if __name__ == "__main__":
    main()
