"""Tests of the benchmark's own Python code.

    python3 -m unittest discover -s nhbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import nhstats  # noqa: E402
import run  # noqa: E402


class OrderStatistics(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(nhstats.percentile(values, 50), 50)
        self.assertEqual(nhstats.percentile(values, 90), 90)
        self.assertEqual(nhstats.percentile(values, 99), 99)
        self.assertEqual(nhstats.percentile([5.0], 99), 5.0)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(nhstats.highest_reportable_percentile(list(range(100))), (90, 89))
        self.assertEqual(nhstats.highest_reportable_percentile(list(range(1000)))[0], 99)
        self.assertEqual(nhstats.highest_reportable_percentile(list(range(10000)))[0], 99.9)
        self.assertEqual(nhstats.highest_reportable_percentile(list(range(25)))[0], 50)
        self.assertIsNone(nhstats.highest_reportable_percentile(list(range(15))))


class SpanSelfTime(unittest.TestCase):
    def test_children_and_folded_calls_are_subtracted(self):
        spans = [
            {"id": 1, "name": "point", "start_ns": 0, "end_ns": 100, "counts": {}},
            {"id": 2, "parent": 1, "name": "crossbar.build", "start_ns": 10, "end_ns": 30,
             "counts": {}},
            {"id": 3, "parent": 1, "name": "attack", "start_ns": 30, "end_ns": 90,
             "counts": {"child_ns": 45}},
        ]
        self_ns = nhstats.self_times(spans)
        self.assertEqual(self_ns[1], 100 - 20 - 60)
        self.assertEqual(self_ns[2], 20)
        self.assertEqual(self_ns[3], 15)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            {"id": 1, "name": "setup", "start_ns": 100, "end_ns": 200},
            {"id": 2, "parent": 1, "name": "a", "start_ns": 90, "end_ns": 150},
            {"id": 3, "parent": 1, "name": "b", "start_ns": 140, "end_ns": 160},
        ]
        self.assertEqual(nhstats.self_times(spans)[1], 40)


SERVER_TRACE = "\n".join([
    '{"trace":"t","span":"0000000000000001","name":"job","start_ns":0,"end_ns":1000}',
    '{"trace":"t","span":"0000000000000002","parent":"0000000000000001","name":"submit",'
    '"start_ns":0,"end_ns":0}',
    '{"trace":"t","span":"0000000000000003","parent":"0000000000000001","name":"lease",'
    '"start_ns":100000,"end_ns":900000,"attrs":{"worker":"w0","shard":"0/1","outcome":"done"}}',
    '{"trace":"t","span":"0000000000000004","parent":"0000000000000003","name":"compute",'
    '"start_ns":200000,"end_ns":500000,"attrs":{"index":"0","worker":"w0"}}',
    '{"trace":"t","span":"0000000000000005","parent":"0000000000000004","name":"fold",'
    '"start_ns":500000,"end_ns":500000}',
    '{"trace":"t","span":"0000000000000006","parent":"0000000000000003","name":"compute",'
    '"start_ns":600000,"end_ns":800000,"attrs":{"index":"1","worker":"w0"}}',
    '{"trace":"t","span":"0000000000000007","parent":"0000000000000001","name":"lease",'
    '"start_ns":100000,"end_ns":300000,"attrs":{"worker":"w1","shard":"0/1",'
    '"outcome":"expired"}}',
    "",
])

METRICS = """# HELP queue_leases_granted_total Shard leases granted to workers
# TYPE queue_leases_granted_total counter
queue_leases_granted_total 17
queue_leases_expired_total 0
rram_worker_up{worker="w0"} 1
rram_worker_up{worker="w,1",zone="a"} 0
campaign_point_seconds_bucket{le="+Inf"} 20000
campaign_points_per_sec 1.5e3
"""


class Parsers(unittest.TestCase):
    def test_server_trace_jsonl(self):
        spans = nhstats.parse_jsonl(SERVER_TRACE)
        self.assertEqual(len(spans), 7)
        layers = nhstats.server_layers(spans)
        self.assertEqual(layers["leases"], 2)
        self.assertEqual(layers["leases_expired"], 1)
        # Point 0 folds 0.4 ms after the grant with 0.3 ms of compute; point
        # 1 folds 0.3 ms after point 0 with 0.2 ms of compute.
        self.assertEqual([round(x, 9) for x in layers["overheads_ms"]], [0.1, 0.1])
        self.assertAlmostEqual(layers["compute_share"], 0.5 / (0.8 + 0.2))

    def test_prometheus_text(self):
        samples = nhstats.parse_prometheus(METRICS)
        self.assertEqual(samples[("queue_leases_granted_total", ())], 17)
        self.assertEqual(samples[("rram_worker_up", (("worker", "w,1"), ("zone", "a")))], 0)
        self.assertEqual(samples[("campaign_point_seconds_bucket", (("le", "+Inf"),))], 20000)
        self.assertEqual(samples[("campaign_points_per_sec", ())], 1500)
        self.assertEqual(nhstats.metric_total(samples, "rram_worker_up"), 1)
        self.assertEqual(nhstats.metric_total(samples, "absent_total"), 0)


class FailureAccounting(unittest.TestCase):
    REFERENCE = {"report_fnv": "aa", "point_fnv": ["1", "2", "3"]}

    def rep(self, **changes):
        rep = {"expected_points": 3, "points": 3, "report_fnv": "aa",
               "point_fnv": ["1", "2", "3"]}
        rep.update(changes)
        return rep

    def test_identical_reports_fail_nothing(self):
        self.assertEqual(run.failed_points(self.rep(), self.REFERENCE), 0)

    def test_only_differing_points_fail(self):
        rep = self.rep(report_fnv="bb", point_fnv=["1", "x", "3"])
        self.assertEqual(run.failed_points(rep, self.REFERENCE), 1)

    def test_missing_points_or_a_bare_digest_mismatch_fail_everything(self):
        self.assertEqual(run.failed_points(self.rep(points=2), self.REFERENCE), 3)
        bare = {"expected_points": 3, "points": 3, "report_fnv": "bb"}
        self.assertEqual(run.failed_points(bare, {"report_fnv": "aa"}), 3)

    def test_shape_violations_and_traced_mismatches_fail(self):
        self.assertEqual(run.failed_points(self.rep(shape_violations=[0, 2]), self.REFERENCE), 2)
        self.assertEqual(run.failed_points(self.rep(traced_identical=False), self.REFERENCE), 3)


if __name__ == "__main__":
    unittest.main()
