#!/usr/bin/env python3
"""A/A record: run the benchmark against itself and write the record.

Runs two interleaved sets of --runs untraced invocations per workload (one
seed per invocation), exactly as BENCHMARK.json says — its command, its
workloads, its run_seconds — and records for every end-to-end metric each
set's median and quartiles, the spread (interquartile distance as a share of
the median, statistics.quantiles n=4) and how far the second set's median is
worse than the first's. A bound holds when every spread stays within it and
the set medians differ by less than half of it.

    python3 benchmark/aa.py --runs 10 --out benchmark/aa.json
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = manifest["run_seconds"]
    workloads = [w["name"] for w in manifest["workloads"]]
    metrics = {m["name"]: m for m in manifest["end_to_end"]}

    # values[workload][metric][set] -> list
    values = {w: {m: [[] for _ in range(SETS)] for m in metrics} for w in workloads}
    wall = []
    failed_ops = 0
    for i in range(args.runs):
        for s in range(SETS):
            for w in workloads:
                seed = 1000 * (s + 1) + i
                cmd = manifest["command"] + ["--workload", w, "--seed", str(seed),
                                             "--seconds", str(seconds), "--trace", "0"]
                t0 = time.time()
                p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                wall.append(time.time() - t0)
                if p.returncode != 0:
                    sys.exit("run failed: %s\n%s\n%s" % (" ".join(cmd), p.stdout[-2000:], p.stderr[-2000:]))
                res = json.loads(p.stdout.strip().splitlines()[-1])
                failed_ops += res["failed"]
                for m in metrics:
                    values[w][m][s].append(res["metrics"][m]["value"])
                print("run %d set %d %-13s %5.1fs  %s" % (i, s, w, wall[-1], " ".join(
                    "%s=%.4g" % (m, res["metrics"][m]["value"]) for m in metrics)), flush=True)

    record = {
        "command": manifest["command"], "run_seconds": seconds, "runs_per_set": args.runs,
        "sets": SETS, "failed_ops": failed_ops,
        "wall_s_per_run": {"median": statistics.median(wall), "max": max(wall)},
        "workloads": {},
    }
    ok = True
    for w in workloads:
        record["workloads"][w] = {}
        for m, d in metrics.items():
            sets = []
            for vals in values[w][m]:
                q1, med, q3 = statistics.quantiles(vals, n=4)
                sets.append({"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "values": vals})
            a, b = sets[0]["median"], sets[1]["median"]
            worse = (b - a) / a if d["better"] == "lower" else (a - b) / a
            holds = (all(s["spread"] <= d["bound"] for s in sets)
                     and abs(b - a) / a < d["bound"] / 2)
            ok = ok and holds
            record["workloads"][w][m] = {"bound": d["bound"], "sets": sets,
                                         "second_median_worse_by": worse, "holds": holds}
            print("%-13s %-20s bound %4.0f%%  spreads %s  median shift %+.1f%%  %s" % (
                w, m, 100 * d["bound"], " ".join("%5.1f%%" % (100 * s["spread"]) for s in sets),
                100 * worse, "" if holds else "<-- does not hold"))
    record["all_bounds_hold"] = ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print("wall per run: median %.1fs max %.1fs; failed ops %d; all bounds hold: %s" % (
        record["wall_s_per_run"]["median"], record["wall_s_per_run"]["max"], failed_ops, ok))


if __name__ == "__main__":
    main()
