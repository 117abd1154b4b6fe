#!/usr/bin/env python3
"""Stability check of the benchmark itself.

    python3 nhbench/check.py [--seeds 10] [--sets 1]

Runs `run.py --trace 0` once per seed and workload of BENCHMARK.json,
rotating round-robin across the workloads (seed 1 on every workload, then
seed 2, ...), so a slow host period spreads over all workloads instead of
hitting one. For
each workload and end-to-end metric it prints the median, the quartiles
and the interquartile range as a share of the median next to the metric's
bound from BENCHMARK.json, plus the median host calibration. With
`--sets 2` the whole rotation runs twice and the second median is
compared with the first. Results go to `nhbench/out/check-*.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    if result.returncode != 0:
        raise SystemExit(f"check: {workload} seed {seed} failed ({result.returncode})")
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0.json")) as f:
        calib = statistics.median(json.load(f)["environment"]["calib_ms"])
    return summary, calib


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    for set_index in range(args.sets):
        values = {w: {m: [] for m in bounds} for w in names}
        calibs = {w: [] for w in names}
        failures = 0
        for i in range(args.seeds):
            seed = i + 1
            for w in names[i % len(names):] + names[:i % len(names)]:
                started = time.monotonic()
                summary, calib = run(w, seed, bench["run_seconds"])
                failures += summary["failed"] + (not summary["correct"])
                calibs[w].append(calib)
                for m in bounds:
                    values[w][m].append(summary["metrics"][m]["value"])
                print(f"set {set_index + 1} seed {seed} {w}: "
                      + " ".join(f"{m}={summary['metrics'][m]['value']:.6g}" for m in bounds)
                      + f" calib={calib:.2f}ms wall={time.monotonic() - started:.1f}s",
                      flush=True)
        sets.append({"values": values, "calib_ms": calibs, "failures": failures})

    report = []
    for w in names:
        for m, bound in bounds.items():
            row = {"workload": w, "metric": m, "bound": bound}
            for k, s in enumerate(sets):
                v = s["values"][w][m]
                q1, q2, q3 = statistics.quantiles(v, n=4)
                row[f"set{k + 1}"] = {"median": q2, "q1": q1, "q3": q3,
                                      "iqr_share": (q3 - q1) / q2,
                                      "calib_ms": statistics.median(s["calib_ms"][w])}
            if len(sets) > 1:
                row["median_change"] = row["set2"]["median"] / row["set1"]["median"] - 1
            report.append(row)
            line = f"{w:12s} {m:12s} bound {bound:.2f}"
            for k in range(len(sets)):
                r = row[f"set{k + 1}"]
                line += (f" | set{k + 1} median {r['median']:.6g} iqr {100 * r['iqr_share']:.2f}%"
                         f" calib {r['calib_ms']:.2f}ms")
            if "median_change" in row:
                line += f" | change {100 * row['median_change']:+.2f}%"
            print(line)
    print(f"failures: {[s['failures'] for s in sets]}")
    name = time.strftime("check-%Y%m%d-%H%M%S.json")
    with open(os.path.join(HERE, "out", name), "w") as f:
        json.dump({"rows": report, "sets": sets}, f, indent=1)


if __name__ == "__main__":
    main()
