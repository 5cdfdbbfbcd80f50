#!/usr/bin/env python3
"""Steadiness tool: runs sets of benchmark runs of one build and compares them.

Run from the root of the repository:

    python3 simbench/steady.py --workloads paper,metro --runs 10 --sets 2

Every set runs each workload once per seed (seeds 1 .. runs, the same seeds
in every set) with the command, run length and metrics in BENCHMARK.json. For each end-to-end metric it prints, per set, the median,
the quartiles (Python's statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median. With two sets it
also prints how far the second median moved from the first, in the
direction that counts as worse, and the failed share of each set. Every
spread and every move, `setup_s`'s too, is held to its metric's bound. The
bounds in BENCHMARK.json are set from what this prints.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--sets", type=int, default=2)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {}  # (set, workload) -> [result]
    for s in range(opts.sets):
        for w in workloads:
            for i in range(opts.runs):
                seed = 1 + i
                r = run_once(command, w, seed, seconds)
                results.setdefault((s, w), []).append(r)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {r['elapsed_s']:.1f} s, "
                      f"{r['failed']}/{r['attempted']} failed, correct {r['correct']}, {values}",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':8} {'metric':14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'moved':>7}")
    for w in workloads:
        for name, m in metrics.items():
            first_median = None
            for s in range(opts.sets):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                moved = ""
                if first_median is None:
                    first_median = med
                else:
                    change = (med - first_median) / first_median
                    worse = change if m["better"] == "lower" else -change
                    moved = f"{worse:+.3f}"
                    ok &= worse <= m["bound"]
                ok &= spread <= m["bound"]
                print(f"{w:8} {name:14} {s + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {m['bound']:6.3f} {moved:>7}")
        shares = []
        for s in range(opts.sets):
            runs = results[(s, w)]
            shares.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
        ok &= len(set(shares)) == 1 and all(r["correct"] for s in range(opts.sets)
                                              for r in results[(s, w)])
        print(f"{w:8} failed share per set: {shares}")

    print("steady: every spread and move within its bound" if ok
          else "steady: NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
