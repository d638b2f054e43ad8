#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload, back to back, and prints for every end-to-end metric the
median, the first and third quartiles (statistics.quantiles, n=4) and the
quartile distance as a share of the median, next to the metric's bound.
The per-run log lines of every invocation go to standard error.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            out = subprocess.run(
                [*bench["command"], "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit("%s seed %d exited with %d" % (w, seed, out.returncode))
            *log, last = out.stdout.strip().splitlines()
            for line in log:
                print("  " + line, file=sys.stderr)
            result = json.loads(last)
            ok = ok and result["correct"] and result["failed"] == 0
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print("%s seed %d: %s" % (w, seed, json.dumps(result)), flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print("%-15s %-12s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  bound %.2f"
                  % (w, m["name"], med, q1, q3, (q3 - q1) / med, m["bound"]), flush=True)
    if not ok:
        sys.exit("some run failed its correctness checks")


if __name__ == "__main__":
    main()
