"""Pure helpers of the benchmark: nearest-rank percentiles, span self
time, and parsers for the server's trace JSONL and Prometheus `/metrics` text.

Everything here is deterministic and free of I/O, so
`tests/test_nhstats.py` covers it without running the program.
"""

import json
import math


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p % of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(p, len(ordered)) - 1]


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples (the epsilon
    keeps 99.9 % of 10 000 at rank 9990 despite binary rounding)."""
    return max(1, math.ceil(p * n / 100 - 1e-9))


REPORTABLE_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def highest_reportable_percentile(values, beyond=10):
    """The highest of REPORTABLE_PERCENTILES that leaves at least `beyond`
    samples strictly above its nearest rank, as (p, value); None when even
    the median leaves fewer."""
    n = len(values)
    ordered = sorted(values)
    for p in REPORTABLE_PERCENTILES:
        rank = _rank(p, n)
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return None


def self_times(spans):
    """Self time of every span, ns, by id: its duration minus the part of
    its interval covered by its children, minus the call time folded into
    its `child_ns` count."""
    children = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        intervals = sorted(
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(span["id"], [])
        )
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        folded = span.get("counts", {}).get("child_ns", 0)
        result[span["id"]] = max(0, end - start - covered - folded)
    return result


def parse_jsonl(text):
    """One JSON object per non-empty line."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def parse_prometheus(text):
    """Prometheus text exposition -> {(name, labels): value}, where labels
    is a sorted tuple of (key, value) pairs. Comments are skipped."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            labels = []
            for part in _split_labels(label_text):
                key, value = part.split("=", 1)
                labels.append((key.strip(), json.loads(value)))
            key = (name, tuple(sorted(labels)))
        else:
            name, value_text = line.split(None, 1)
            key = (name, ())
        samples[key] = float(value_text.split()[0])
    return samples


def _split_labels(text):
    """Splits `a="x",b="y,z"` at commas outside quotes."""
    parts, current, quoted, escaped = [], [], False, False
    for char in text:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == '"':
            current.append(char)
            quoted = not quoted
        elif char == "," and not quoted:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if "".join(current).strip():
        parts.append("".join(current))
    return parts


def metric_total(samples, name):
    """Sum of every sample of one metric family over all label sets."""
    return sum(v for (n, _), v in samples.items() if n == name)


def server_layers(trace_spans):
    """Per-point overhead and compute share of a served job, from its
    `/jobs/{id}/trace` spans.

    A point's overhead is the time between the previous fold of the same
    lease (or the lease grant) and its own fold, minus its compute time:
    lease, HTTP and fold cost outside the simulation.
    """
    by_id = {s["span"]: s for s in trace_spans}
    leases = [s for s in trace_spans if s["name"] == "lease"]
    folds_by_lease = {}
    for span in trace_spans:
        if span["name"] == "compute" and span.get("parent") in by_id:
            folds_by_lease.setdefault(span["parent"], []).append(span)
    overheads_ms = []
    compute_ns = 0
    lease_ns = 0
    for lease in leases:
        end = lease.get("end_ns", lease["start_ns"])
        lease_ns += end - lease["start_ns"]
        previous = lease["start_ns"]
        for compute in sorted(folds_by_lease.get(lease["span"], []), key=lambda s: s["end_ns"]):
            wall = compute["end_ns"] - compute["start_ns"]
            compute_ns += wall
            overheads_ms.append((compute["end_ns"] - previous - wall) / 1e6)
            previous = compute["end_ns"]
    expired = sum(1 for lease in leases if lease.get("attrs", {}).get("outcome") == "expired")
    return {
        "overheads_ms": overheads_ms,
        "compute_share": compute_ns / lease_ns if lease_ns else 0.0,
        "leases": len(leases),
        "leases_expired": expired,
    }
