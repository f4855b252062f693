#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports how steady each metric is.

For every workload and end-to-end metric it prints, per set of runs, the
median, the quartiles and the spread (interquartile distance over the
median, from ``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json; with two or more sets it also prints how far
each later set's median moved from the first set's. Use it to re-derive
the bounds after the program or the machine changes.

    python3 perfbench/spread.py --runs 10 --sets 2
    python3 perfbench/spread.py --runs 5 --workloads read_cold --seconds 5

Run it from the root of the repository. Seeds are 1, 2, ... across all
runs of all sets, so no two runs share a seed. ``--out`` also writes
every measured value as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


FIRST_SEED = 1


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(args)} reported incorrect output:\n{done.stderr[-2000:]}")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    parser.add_argument("--workloads", help="comma-separated subset of the workloads")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--out", help="write all values as JSON to this file")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = opts.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list; failed share per set/workload
    values = [{w: {} for w in workloads} for _ in range(opts.sets)]
    failed = [{w: [] for w in workloads} for _ in range(opts.sets)]
    seed = FIRST_SEED
    for s in range(opts.sets):
        for w in workloads:
            for _ in range(opts.runs):
                result = run_once(command, w, seed, seconds)
                seed += 1
                failed[s][w].append(result["failed"] / result["attempted"])
                for name, m in result["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])
                print(f"set {s} {w} seed {seed - 1}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)

    steady = True
    for w in workloads:
        print(f"\n{w}  (failed share per set: "
              + ", ".join(f"{statistics.median(f[w]):.6f}" for f in failed) + ")")
        print(f"  {'metric':28s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'drift':>7s}  verdict")
        for name in values[0][w]:
            bound = bounds.get(name)
            first = None
            for s in range(opts.sets):
                vals = values[s][w][name]
                if len(vals) < 2:
                    continue
                median, q1, q3, spread = summary(vals)
                drift = ""
                verdict = ""
                if first is None:
                    first = median
                elif first:
                    d = (median - first) / first
                    drift = f"{d:+.3f}"
                if bound is not None:
                    ok_spread = spread <= bound / 3
                    ok_drift = not drift or abs(float(drift)) <= bound
                    verdict = "ok" if ok_spread and ok_drift else "UNSTEADY"
                    steady = steady and verdict == "ok"
                print(f"  {name:28s} {s:>3d} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {bound if bound is not None else '':>6} {drift:>7s}  {verdict}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"seconds": seconds, "values": values, "failed": failed}, f, indent=1)
    print("\nall end-to-end spreads below a third of their bounds"
          if steady else "\nsome metric is not steady (see UNSTEADY rows)")


if __name__ == "__main__":
    main()
