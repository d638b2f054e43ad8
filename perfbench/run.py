#!/usr/bin/env python3
"""Benchmark entry point: build the runner, run one workload, print one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload run is a fresh process of perfbench/bench.exe (so VmHWM is
that run's own peak), and run i of an invocation draws its inputs from
input seed N*1000+i.  With --trace 0 the script starts runs until S
seconds have passed (at least MIN_RUNS of them) and reports, over the
runs, the median of all their set-up times, the 10 %-trimmed mean of
all their measured phases (wall_s), the largest peak_rss_mb, and the
nearest-rank p50 and p99 of all their operation latencies.  With --trace 1 it makes one untraced and one
traced run of input seed N*1000 and reports the traced run's per-layer
metrics plus trace.overhead_s, the traced minus the untraced
measured-phase wall time.  The last line of standard output is the
result object; everything before it is a human-readable log.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
DEADLINE_S = 170.0
MIN_RUNS = {"city-faults-j1": 3, "serve-sweep": 3}


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no amblib source tree here (dune-project and lib/ are missing)")
    proc = subprocess.run(["dune", "build", "--root", ".", "--build-dir", "_build",
                           "./perfbench/bench.exe"],
                          cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("building perfbench/bench.exe failed")


def run_once(workload, seed, started, trace=False):
    """One fresh runner process; returns its parsed result line."""
    args = [EXE, workload, "--seed", str(seed), "--dir", RUN_DIR]
    if trace:
        args += ["--trace", "--spans",
                 os.path.join(RUN_DIR, "spans-%s-%d.jsonl" % (workload, seed))]
    budget = DEADLINE_S - (time.monotonic() - started)
    if budget <= 0:
        fail("out of time before a %s run" % workload)
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=budget, text=True)
    except subprocess.TimeoutExpired:
        fail("a %s run did not finish within the deadline" % workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s run exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def percentiles(samples):
    """Nearest-rank p50 and p99 of samples, from bench.exe's own summary."""
    proc = subprocess.run([EXE, "percentiles"], cwd=ROOT, input="\n".join(map(repr, samples)),
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=60)
    if proc.returncode != 0:
        fail("bench.exe percentiles exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trimmed_mean(values, share=0.1):
    """Mean of values without the lowest and highest share of them.

    The host alternates between fast and slow stretches lasting seconds,
    so the measured phases of one invocation fall in two clusters; their
    median jumps from one cluster to the other as the mix shifts, while
    this mean moves with the mix and still ignores lone outliers.
    """
    ordered = sorted(values)
    k = int(len(ordered) * share)
    return statistics.fmean(ordered[k:len(ordered) - k])


def input_seed(seed, i):
    return (seed * 1000 + i) % (1 << 62)


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(MIN_RUNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    end_to_end, per_layer = metric_specs()
    build()
    os.makedirs(RUN_DIR, exist_ok=True)

    started = time.monotonic()
    runs = []
    if a.trace:
        runs.append(run_once(a.workload, input_seed(a.seed, 0), started))
        runs.append(run_once(a.workload, input_seed(a.seed, 0), started, trace=True))
    else:
        while (len(runs) < MIN_RUNS[a.workload]
               or time.monotonic() - started < a.seconds):
            runs.append(run_once(a.workload, input_seed(a.seed, len(runs)), started))
    for r in runs:
        log("run (input seed %d%s): setup median %.4f s over %d, wall median %.4f s over %d, "
            "peak RSS %.1f MB, %d/%d failed%s"
            % (r["seed"], ", traced" if r["traced"] else "", statistics.median(r["setups_s"]),
               len(r["setups_s"]), statistics.median(r["walls_s"]), len(r["walls_s"]),
               r["peak_rss_mb"], r["failed"], r["attempted"],
               "" if r["correct"] else ", checks FAILED"))

    correct = all(r["correct"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    metrics = {}
    if a.trace:
        untraced, traced = runs
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (statistics.median(traced["walls_s"])
                                      - statistics.median(untraced["walls_s"]))
        for m in per_layer:
            metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    else:
        lat = percentiles([v for r in runs for v in r["latencies_ms"]])
        log("latency over %d runs: p50 %.4f ms, p99 %.4f ms, %d samples, %d above p99"
            % (len(runs), lat["p50"], lat["p99"], lat["samples"], lat["above_p99"]))
        values = {
            "setup_s": statistics.median([v for r in runs for v in r["setups_s"]]),
            "wall_s": trimmed_mean([v for r in runs for v in r["walls_s"]]),
            # The largest peak: it depends on the input, and the largest
            # over several inputs is steadier than their median.
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "p50_ms": lat["p50"],
            "p99_ms": lat["p99"],
        }
        for m in end_to_end:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
