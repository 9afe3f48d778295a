#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly across distinct seeds.

    python3 murald_bench/steadiness.py [--workloads psi_scan,oltp_point]
        [--runs 10] [--first-seed 1]

Run from the repository root.  Each run is one untraced
`murald_bench/run.py` invocation with its own seed, at BENCHMARK.json's
run_seconds.  The script prints every run's end-to-end
metrics and host-speed probe (the fixed integer loop timed before and
after the run) and host wake-up probe (a two-thread pipe ping-pong), then,
per workload and metric, the median, the
interquartile range as a share of the median (Python's
statistics.quantiles(values, n=4)), the metric's bound from
BENCHMARK.json and a verdict: "steady" below a third of the bound,
"within" below the bound, "NOISY" above it.  setup_s is reported but, as
in the benchmark contract, its spread is not judged.

Exits nonzero when a run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    record = None
    for line in lines:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
    return json.loads(lines[-1]), record


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["end_to_end"]]
    ok = True
    summary = []
    for workload in args.workloads.split(","):
        values = {n: [] for n in names}
        print("## %s (%d runs x %d s)" % (workload, args.runs, seconds))
        print("| seed | " + " | ".join(names) +
              " | host probe ms | host wake-up us |")
        print("|" + "---|" * (len(names) + 3))
        for i in range(args.runs):
            seed = args.first_seed + i
            result, record = run_once(workload, seed, seconds)
            if result is None or not result["correct"]:
                print("| %d | run failed |" % seed)
                ok = False
                continue
            row = []
            for n in names:
                v = result["metrics"][n]["value"]
                values[n].append(v)
                row.append("%.4g" % v)
            probe = record["host_probe_ms"] if record else {}
            wake = record["host_wakeup_us"] if record else {}
            print("| %d | %s | %.0f / %.0f | %.1f / %.1f |" % (
                seed, " | ".join(row), probe.get("before", 0),
                probe.get("after", 0), wake.get("before", 0),
                wake.get("after", 0)))
            sys.stdout.flush()
        for n in names:
            vals = values[n]
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[n]
            if n == "setup_s":
                verdict = "-"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within"
            else:
                verdict = "NOISY"
                ok = False
            summary.append((workload, n, med, spread, bound, verdict))
        print()
    print("| workload | metric | median | IQR/median | bound | verdict |")
    print("|---|---|---|---|---|---|")
    for workload, n, med, spread, bound, verdict in summary:
        print("| %s | %s | %.4g | %.3f | %s | %s |" % (
            workload, n, med, spread, bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
