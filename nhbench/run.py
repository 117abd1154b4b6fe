#!/usr/bin/env python3
"""Benchmark runner of the NeuroHammer reproduction.

    python3 nhbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `nhbench/` (a cargo package of its
own that links the repository's crates with default features), then runs
one discarded warm-up repetition and as many measured repetitions as fit
in `--seconds` (at least two), each in a fresh process. Prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` runs one traced
repetition instead and reports the per-layer metrics. Every run also
writes a results file with the environment and the raw samples to
`nhbench/out/`. See `nhbench/NOTES.md` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import nhstats  # noqa: E402

WORKLOADS = ("paper_flow", "large_array", "defense_mc", "service")
DEFAULT_SEED = 42
MIN_REPS = 2
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")


def build():
    """Builds the Rust harness in release mode; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    result = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        raise SystemExit(f"nhbench: build failed ({result.returncode})")
    return os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                        "release", "nhbench")


def repetition(binary, workload, seed, mode):
    """One repetition in a fresh process: its parsed JSON line and wall
    time, s."""
    started = time.monotonic()
    result = subprocess.run(
        [binary, "rep", "--workload", workload, "--seed", str(seed),
         "--mode", mode, "--out", OUT],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    wall = time.monotonic() - started
    if result.returncode != 0:
        raise SystemExit(f"nhbench: {workload} {mode} repetition failed ({result.returncode})")
    return json.loads(result.stdout.strip().splitlines()[-1]), wall


def failed_points(rep, expected):
    """Points of one repetition that do not match `expected`, a report
    digest record with `report_fnv` and optionally `point_fnv`: points that
    differ, are missing, or belong to a broken paper shape."""
    total = int(rep["expected_points"])
    if int(rep["points"]) != total or rep.get("traced_identical") is False:
        return total
    flagged = set(rep.get("shape_violations", []))
    if rep["report_fnv"] != expected["report_fnv"]:
        differing = {i for i, (a, b) in enumerate(zip(rep.get("point_fnv", []),
                                                      expected.get("point_fnv", [])))
                     if a != b}
        if not differing:
            return total
        flagged |= differing
    return len(flagged)


def references(workload, seed, first_rep, warmup):
    """Digest records every repetition must reproduce: the pinned reference
    at the default seed, otherwise the first repetition; for `service`
    also the executor's report of the same spec (from the warm-up)."""
    pinned = {}
    if seed == DEFAULT_SEED:
        with open(REFERENCE) as f:
            pinned = json.load(f)
    result = [pinned.get(workload, first_rep)]
    if workload == "service":
        result.append(warmup)
    return result


def environment(reps):
    """Program-independent facts that identify the host and the build."""
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "available_parallelism": reps[0]["nproc"],
        "simd_isa": reps[0]["simd_isa"],
        "rustc": rustc,
        "features": "default",
        "commit": commit(),
        "calib_ms": [c for rep in reps for c in rep["calib_ms"]],
        "steal_ticks": [rep["steal_ticks"] for rep in reps],
    }


def commit():
    """The git commit, or a digest of the sources when not in a git tree."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("crates", "src", "nhbench/src", "Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps):
    setups = [s for rep in reps for s in rep["setup_s"]]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "campaign_s": metric(statistics.median([r["campaign_s"] for r in reps]), "s"),
        "peak_rss_mb": metric(statistics.median([r["vm_hwm_kb"] / 1024 for r in reps]), "MB"),
    }


def load_jsonl(path):
    with open(path) as f:
        return nhstats.parse_jsonl(f.read())


def per_layer(rep):
    """Every per-layer metric from one traced repetition, and the samples
    behind its percentiles. Layers the workload does not run read 0."""
    m = {}
    spans = load_jsonl(rep["spans"]) if "spans" in rep else []
    self_ns = nhstats.self_times(spans)

    def total(name, key=None):
        picked = [s for s in spans if s["name"] == name]
        if key is None:
            return sum(s["end_ns"] - s["start_ns"] for s in picked)
        return sum(s["counts"].get(key, 0) for s in picked)

    fem = rep.get("fem") or {}
    m["fem.extract_s"] = metric(total("fem.extract") / 1e9, "s")
    m["fem.cg_iterations"] = metric(fem.get("cg_iterations", 0), "count")
    for size, probe in rep["kernels"].items() if "kernels" in rep else []:
        m[f"jart.step_lanes_ns_per_cell.{size}"] = metric(probe["step_lanes"], "ns")
        m[f"crossbar.hub_update_ns_per_cell.{size}"] = metric(probe["hub_update"], "ns")
        m[f"crossbar.import_ns_per_cell.{size}"] = metric(probe["import"], "ns")
        m[f"crossbar.relax_ns_per_cell.{size}"] = metric(probe["relax"], "ns")
    drivers = ("attack", "guard")
    pulse_calls = sum(total(d, "apply_pulse_calls") for d in drivers)
    m["crossbar.pulse_phase_s"] = metric(sum(total(d, "pulse_ns") for d in drivers) / 1e9, "s")
    m["crossbar.gap_phase_s"] = metric(sum(total(d, "gap_ns") for d in drivers) / 1e9, "s")
    m["crossbar.apply_pulse_calls"] = metric(pulse_calls, "count")
    m["crossbar.idle_calls"] = metric(sum(total(d, "idle_calls") for d in drivers), "count")
    # `backend_for` samples the point's table inside the build; the drive
    # times that sampling separately and it is reported on its own.
    sample_ns = total("variability.sample")
    m["crossbar.build_s"] = metric(max(0, total("crossbar.build") - sample_ns) / 1e9, "s")
    attack_pulses = total("attack", "pulses")
    m["attack.self_s"] = metric(
        sum(self_ns[s["id"]] for s in spans if s["name"] == "attack") / 1e9, "s")
    m["attack.integrated_ratio"] = metric(
        total("attack", "apply_pulse_calls") / attack_pulses if attack_pulses else 0.0, "ratio")
    m["defense.guard_self_s"] = metric(
        sum(self_ns[s["id"]] for s in spans if s["name"] == "guard") / 1e9, "s")
    m["variability.sample_s"] = metric(sample_ns / 1e9, "s")

    executor = rep.get("executor")
    point_s = executor["point_s"] if executor else []
    m["executor.points"] = metric(len(point_s), "count")
    m["executor.point_s.p50"] = metric(nhstats.percentile(point_s, 50) if point_s else 0.0, "s")
    m["executor.point_s.p90"] = metric(nhstats.percentile(point_s, 90) if point_s else 0.0, "s")
    if executor and executor["campaign_s"] > 0:
        busy = sum(point_s) / (executor["threads"] * executor["campaign_s"])
        finished = sorted(executor["finished_s"])
        threads = int(executor["threads"])
        idle_from = finished[max(0, len(finished) - threads)] if len(finished) >= threads else 0.0
        tail = finished[-1] - idle_from if threads > 1 else 0.0
    else:
        busy, tail = 0.0, 0.0
    m["executor.busy_share"] = metric(busy, "ratio")
    m["executor.tail_s"] = metric(tail, "s")

    server = {"overheads_ms": [], "compute_share": 0.0}
    leases = expired = 0
    if "server_trace" in rep:
        server = nhstats.server_layers(load_jsonl(rep["server_trace"]))
        with open(rep["server_metrics"]) as f:
            after = nhstats.parse_prometheus(f.read())
        with open(rep["server_metrics_before"]) as f:
            before = nhstats.parse_prometheus(f.read())

        def delta(name):
            return nhstats.metric_total(after, name) - nhstats.metric_total(before, name)

        leases = int(delta("queue_leases_granted_total"))
        expired = int(delta("queue_leases_expired_total"))
    overheads = server["overheads_ms"]
    status = rep.get("status_ms", [])
    m["server.submit_ms"] = metric(statistics.median(rep["submit_ms"]) if "submit_ms" in rep else 0.0, "ms")
    m["server.overhead_ms_per_point.p50"] = metric(
        nhstats.percentile(overheads, 50) if overheads else 0.0, "ms")
    m["server.overhead_ms_per_point.p99"] = metric(
        nhstats.percentile(overheads, 99) if overheads else 0.0, "ms")
    m["server.compute_share"] = metric(server["compute_share"], "ratio")
    m["server.leases"] = metric(leases, "count")
    m["server.leases_expired"] = metric(expired, "count")
    m["server.status_ms.p50"] = metric(nhstats.percentile(status, 50) if status else 0.0, "ms")
    m["server.status_ms.p99"] = metric(nhstats.percentile(status, 99) if status else 0.0, "ms")
    m["host.calib_ms"] = metric(statistics.median(rep["calib_ms"]), "ms")
    m["bench.trace_overhead_s"] = metric(rep["traced_campaign_s"] - rep["campaign_s"], "s")
    samples = {"executor.point_s": point_s, "server.overhead_ms_per_point": overheads,
               "server.status_ms": status}
    return m, samples


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="pin this run's reports (default seed) in reference.json")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    warmup, _ = repetition(binary, args.workload, args.seed, "warmup")

    reps, walls = [], []
    started = time.monotonic()
    if args.trace:
        rep, wall = repetition(binary, args.workload, args.seed, "traced")
        reps.append(rep)
        walls.append(wall)
    else:
        while True:
            rep, wall = repetition(binary, args.workload, args.seed, "plain")
            reps.append(rep)
            walls.append(wall)
            elapsed = time.monotonic() - started
            if len(reps) >= MIN_REPS and elapsed + sum(walls) / len(walls) > args.seconds:
                break

    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            parser.error("references are pinned at the default seed")
        pinned = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                pinned = json.load(f)
        keep = ("seed", "points", "report_fnv", "point_fnv")
        source = warmup if args.workload == "service" else reps[0]
        pinned[args.workload] = {k: source[k] for k in keep if k in source}
        with open(REFERENCE, "w") as f:
            json.dump(pinned, f, indent=1, sort_keys=True)
            f.write("\n")

    expected = references(args.workload, args.seed, reps[0], warmup)
    attempted = sum(int(r["expected_points"]) for r in reps)
    failed = sum(max(failed_points(r, e) for e in expected) for r in reps)
    samples = {}
    if args.trace:
        metrics, samples = per_layer(reps[0])
    else:
        metrics = end_to_end(reps)
    if set(metrics) != declared_metrics(args.trace):
        raise SystemExit(f"nhbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ declared_metrics(args.trace))}")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment([warmup] + reps),
        "repetition_wall_s": walls,
        "repetitions": [{k: v for k, v in r.items() if k != "point_fnv"} for r in reps],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        # Sample counts behind the per-layer percentiles, and the highest
        # percentile that still has ten samples beyond it.
        "percentile_samples": {
            name: {"n": len(values),
                   "highest_reportable": nhstats.highest_reportable_percentile(values)}
            for name, values in samples.items()
        },
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(results, f, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
