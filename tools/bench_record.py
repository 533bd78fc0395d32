#!/usr/bin/env python3
"""Record the benchmark numbers of this checkout in one JSON file.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --out bench.json

Runs ``perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` as a
subprocess for each workload and each of five fixed seeds, one run at a
time, and reads each run's ``environment`` line and its result line (the
last line of its output).  Then it times one
``musel simulate --preset table1 --seed 1`` and one ``--preset reduced
--seed 7``, wall and CPU.  The file holds the git sha (and whether tracked
files differed from it), the environment block of the first run, every
run's metrics, the median and quartiles of each metric per workload, and
the simulate times.  The file records numbers; it gates nothing.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sim-reduced", "estimate-p500", "sens-fixedpoint")
SEEDS = (1001, 1002, 1003, 1004, 1005)
SECONDS = 30.0


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


def simulate_times(preset, seed):
    """Wall and CPU seconds of one ``musel simulate --preset P --seed S --raw``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-m", "musel.cli", "simulate",
                        "--preset", preset, "--seed", str(seed),
                        "--out", os.path.join(tmp, "out.csv"), "--raw"],
                       env=env, check=True)
        wall = time.monotonic() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
    return {"command": f"musel simulate --preset {preset} --seed {seed} --raw",
            "wall_s": wall, "cpu_s": cpu}


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
    record = {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        # True when tracked files differed from that commit while measuring
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "environment": environment,
        "perfbench": {"command": "perfbench/run.py --trace 0",
                      "seconds": SECONDS, "seeds": list(SEEDS),
                      "workloads": workloads},
        "simulate": simulate,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
