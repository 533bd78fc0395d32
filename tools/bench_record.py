#!/usr/bin/env python3
"""Record the benchmark numbers of this checkout in one JSON file.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --out bench.json

Runs ``perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` as a
subprocess for each workload and each of five fixed seeds, one run at a
time, and reads each run's ``environment`` line and its result line (the
last line of its output).  Then it times one
``musel simulate --preset table1 --seed 1`` and one ``--preset reduced
--seed 7``, wall and CPU, and the cold starts: 15 fresh
``python -m musel.cli estimate`` requests (missing mode, known pi) on one
seeded, 10%-masked 100x500 CSV design, and 15 bare
``python -c "import musel"`` starts, each as the median wall time and the
mean CPU time (``RUSAGE_CHILDREN``, user + system) per start.  Beside the
estimate's times it records the request's pivots (``iterations`` in its
JSON output), and the median of 15 ``musel.io.read_matrix`` calls on the
same design CSV, timed in one interpreter.  It times
``kappa_inf_exact(psi, 1)`` and ``kappa_lower_bound(psi, 2)`` on the
seeded, normalized 100x500 Gram of tests/conftest.py's
``normalized_gram(500, 100, 1)``, each in a fresh interpreter, as the
process's wall and CPU time, the result's own ``wall_time``, its
``lp_count``, the pivots summed over its LPs (``LpSolution.iterations``,
counted through a wrapper on ``musel.sensitivity.solve_lp``), its value and
its kind; likewise ``kappa_lower_bound(psi, 1)``, ``kappa_one(psi, 1)``,
``kappa_star(psi, 1, 0)`` (exact coordinate 0), and ``kappa_one`` at s = 1
and ``kappa_lower_bound`` at s = 2 on the plug-in Gram of the same design
with 10% of its entries masked (``apply_mask`` seed 1).  Last it
runs the Tier-1 suite once (``python -m pytest -q
--continue-on-collection-errors -p no:cacheprovider`` with this checkout's
src first on PYTHONPATH) and takes its wall and CPU time and its passed,
skipped and failed counts.
The file holds the git sha (and whether tracked files differed from it),
the environment block of the first run, every run's metrics, the median
and quartiles of each metric per workload, the simulate times, the cold
starts, the reads, the sensitivities and the Tier-1 run.  The file records
numbers; it gates nothing.
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sim-reduced", "estimate-p500", "sens-fixedpoint")
SEEDS = (1001, 1002, 1003, 1004, 1005)
SECONDS = 30.0
COLD_STARTS = 15
# (name, its arguments after psi, Gram)
SENSITIVITIES = (("kappa_inf_exact", (1,), "normalized"),
                 ("kappa_lower_bound", (1,), "normalized"),
                 ("kappa_lower_bound", (2,), "normalized"),
                 ("kappa_lower_bound", (2,), "masked"),
                 ("kappa_one", (1,), "normalized"),
                 ("kappa_one", (1,), "masked"),
                 ("kappa_star", (1, 0), "normalized"))
GRAMS = {"normalized": "normalized_gram(500, 100, 1)",
         "masked": "gram(rescale(Z, 0.1), sigma_hat(Z, 0.1))"}

# one sensitivity call on normalized_gram(500, 100, 1) of tests/conftest.py,
# or on the plug-in Gram of its design X with 10% of the entries masked,
# Z = apply_mask(X, 0.1, 1) (indefinite, as under the paper's missing-data
# model), summing the pivots of every LP it solves
SENSITIVITY_CODE = """
import json, sys
import numpy as np
from musel import sensitivity
solve, pivots = sensitivity.solve_lp, []
def counted(lp, *args, **kwargs):
    sol = solve(lp, *args, **kwargs)
    pivots.append(sol.iterations)
    return sol
sensitivity.solve_lp = counted
rng = np.random.default_rng(1)
X = rng.standard_normal((100, 500))
X -= X.mean(axis=0)
X /= np.sqrt((X ** 2).mean(axis=0))
psi = X.T @ X / 100
if sys.argv[2] == "masked":
    from musel.core import gram
    from musel.missing import apply_mask, rescale, sigma_hat
    Z = apply_mask(X, 0.1, 1)
    psi = gram(rescale(Z, 0.1), sigma_hat(Z, 0.1))
r = getattr(sensitivity, sys.argv[1])(psi, *map(int, sys.argv[3:]))
print(json.dumps({"value": r.value, "kind": r.kind, "lp_count": r.lp_count,
                  "pivots": sum(pivots), "call_wall_s": r.wall_time}))
"""

# READS calls of musel.io.read_matrix on one CSV, timed in this interpreter
READ_CODE = """
import json, statistics, sys, time
from musel.io import read_matrix
times = []
for _ in range(int(sys.argv[2])):
    t0 = time.perf_counter()
    read_matrix(sys.argv[1])
    times.append(time.perf_counter() - t0)
print(json.dumps({"median_s": statistics.median(times)}))
"""
READS = 15


def perfbench(workload, seed):
    """(environment block, result) of one perfbench run."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    env = next(json.loads(line[len("environment "):]) for line in out
               if line.startswith("environment "))
    return env, json.loads(out[-1])


def summary(values):
    """Median and quartiles of a list of numbers."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def child_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))


def timed(args):
    """Wall and CPU seconds of one ``python args...`` run on this checkout's src."""
    cpu0, t0 = child_cpu(), time.monotonic()
    subprocess.run([sys.executable, *args], env=src_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.monotonic() - t0, child_cpu() - cpu0


def simulate_times(preset, seed):
    """Wall and CPU seconds of one ``musel simulate --preset P --seed S --raw``."""
    with tempfile.TemporaryDirectory() as tmp:
        wall, cpu = timed(["-m", "musel.cli", "simulate", "--preset", preset,
                           "--seed", str(seed),
                           "--out", os.path.join(tmp, "out.csv"), "--raw"])
    return {"command": f"musel simulate --preset {preset} --seed {seed} --raw",
            "wall_s": wall, "cpu_s": cpu}


def cold_starts(command, args):
    """Median wall and mean CPU seconds of COLD_STARTS runs of ``python args``."""
    runs = [timed(args) for _ in range(COLD_STARTS)]
    walls = [wall for wall, _ in runs]
    return {"command": command, "starts": COLD_STARTS,
            "wall_s": summary(walls),
            "cpu_s_mean": statistics.fmean(cpu for _, cpu in runs)}


def cold_estimate():
    """Cold starts of ``musel estimate`` on a seeded, masked 100x500 design,
    with the request's pivots, and the in-process reads of that design CSV."""
    rng = np.random.default_rng(1812)
    X = rng.standard_normal((100, 500))
    X -= X.mean(axis=0)
    X /= np.sqrt((X ** 2).mean(axis=0))
    theta = np.zeros(500)
    theta[rng.choice(500, 2, replace=False)] = 0.5
    y = X @ theta + 0.05 / 1.96 * rng.standard_normal(100)
    Z = X * (rng.random((100, 500)) >= 0.1)
    with tempfile.TemporaryDirectory() as tmp:
        zp, yp = os.path.join(tmp, "Z.csv"), os.path.join(tmp, "y.csv")
        np.savetxt(zp, Z, fmt="%.17g", delimiter=",")
        np.savetxt(yp, y.reshape(-1, 1), fmt="%.17g", delimiter=",")
        out = os.path.join(tmp, "theta.json")
        request = ["estimate", "--design", zp, "--response", yp,
                   "--mode", "missing", "--pi", "0.1", "--mu", "0.11",
                   "--tau", "0.02", "--out", out]
        cold = cold_starts("musel estimate --design Z.csv --response y.csv "
                           "--mode missing --pi 0.1 --mu 0.11 --tau 0.02 "
                           "(seeded 10%-masked 100x500 design)",
                           ["-m", "musel.cli", *request])
        with open(out) as fh:
            cold["iterations"] = json.load(fh)["iterations"]
        read = subprocess.run([sys.executable, "-c", READ_CODE, zp, str(READS)],
                              env=src_env(), check=True, capture_output=True,
                              text=True).stdout
    read = {"call": "musel.io.read_matrix(Z.csv) (the estimate's design)",
            "reads": READS, **json.loads(read)}
    return cold, read


def sensitivity_times(name, args, psi):
    """One ``name(psi, *args)`` call in a fresh interpreter on this
    checkout's src, psi a key of GRAMS."""
    cpu0, t0 = child_cpu(), time.monotonic()
    out = subprocess.run([sys.executable, "-c", SENSITIVITY_CODE, name, psi,
                          *map(str, args)], env=src_env(), check=True,
                         capture_output=True, text=True).stdout
    wall, cpu = time.monotonic() - t0, child_cpu() - cpu0
    return {"call": f"{name}({GRAMS[psi]}, {', '.join(map(str, args))})",
            "wall_s": wall, "cpu_s": cpu, **json.loads(out)}


def tier1():
    """Wall and CPU seconds and outcome counts of one Tier-1 suite run."""
    args = ["-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider"]
    cpu0, t0 = child_cpu(), time.monotonic()
    out = subprocess.run([sys.executable, *args], cwd=ROOT, env=src_env(),
                         capture_output=True, text=True).stdout
    wall, cpu = time.monotonic() - t0, child_cpu() - cpu0
    last = out.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|skipped|failed)", last)}
    return {"command": "python " + " ".join(args), "wall_s": wall,
            "cpu_s": cpu, "summary": last.strip("= "),
            **{kind: counts.get(kind, 0)
               for kind in ("passed", "skipped", "failed")}}


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True).stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    environment, workloads = None, {}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            env, result = perfbench(workload, seed)
            environment = environment or env
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": metrics})
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"ops_per_s {metrics['ops_per_s']:.4g}, "
                  f"cpu_s_per_op {metrics['cpu_s_per_op']:.4g}", file=sys.stderr)
        workloads[workload] = {
            "runs": runs,
            "metrics": {name: summary([r["metrics"][name] for r in runs])
                        for name in runs[0]["metrics"]},
        }
    simulate = {preset: simulate_times(preset, seed)
                for preset, seed in (("table1", 1), ("reduced", 7))}
    for preset, t in simulate.items():
        print(f"{preset}: {t['wall_s']:.1f} s wall, {t['cpu_s']:.1f} s CPU",
              file=sys.stderr)
    estimate, read = cold_estimate()
    cold = {"estimate": estimate,
            "import": cold_starts('python -c "import musel"',
                                  ["-c", "import musel"])}
    for name, t in cold.items():
        print(f"cold {name}: {1e3 * t['wall_s']['median']:.0f} ms wall "
              f"(median), {1e3 * t['cpu_s_mean']:.0f} ms CPU (mean)",
              file=sys.stderr)
    print(f"estimate pivots: {estimate['iterations']}; read_matrix: "
          f"{1e3 * read['median_s']:.1f} ms (median)", file=sys.stderr)
    sens = {f"{name}_s{args[0]}" + "".join(f"_k{k}" for k in args[1:])
            + ("" if psi == "normalized" else f"_{psi}"):
            sensitivity_times(name, args, psi)
            for name, args, psi in SENSITIVITIES}
    for key, t in sens.items():
        print(f"{key}: {t['call_wall_s']:.1f} s in the call, {t['wall_s']:.1f} s "
              f"wall, {t['cpu_s']:.1f} s CPU, {t['lp_count']} LPs, "
              f"{t['pivots']} pivots, "
              f"value {t['value']:.4g} ({t['kind']})", file=sys.stderr)
    suite = tier1()
    print(f"tier-1: {suite['summary']}; {suite['wall_s']:.1f} s wall, "
          f"{suite['cpu_s']:.1f} s CPU", file=sys.stderr)
    record = {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        # True when tracked files differed from that commit while measuring
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "environment": environment,
        "perfbench": {"command": "perfbench/run.py --trace 0",
                      "seconds": SECONDS, "seeds": list(SEEDS),
                      "workloads": workloads},
        "simulate": simulate,
        "cold_start": cold,
        "read_matrix": read,
        "sensitivity": sens,
        "tier1": suite,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
