#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload, many seeds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload sim-reduced --seeds 1-10

Runs perfbench/run.py once per seed with the run length from
BENCHMARK.json and prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  A spread above a third of
its bound means the benchmark is not steady enough to judge a change by
that metric.  The
summary is also written to perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output check failed\n{proc.stdout}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)

    summary = {}
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        summary[m["name"]] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                              "spread": spread, "bound": m["bound"], "values": vals}
        flag = "" if spread < m["bound"] / 3 else "  <- not steady"
        print(f"{m['name']:<14} median {statistics.median(vals):<12.6g} "
              f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.4f} "
              f"bound {m['bound']}{flag}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.workload}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
