"""Per-stage aggregation and multi-process timeline merging."""

from repro.obs.aggregate import aggregate, merge_spans, stage_breakdown, stage_table
from repro.obs.tracer import TELEMETRY_SCHEMA


def span(name, ts, dur, depth=0, pid=1, proc="main", args=None):
    s = {"name": name, "ts": ts, "dur": dur, "depth": depth, "tid": 1,
         "pid": pid, "proc": proc}
    if args:
        s["args"] = args
    return s


class TestAggregate:
    def test_totals_counts_and_counter_sums(self):
        spans = [
            span("mlp.gemm.fwd", 0, 2_000_000, args={"rows": 4}),
            span("mlp.gemm.fwd", 5_000_000, 4_000_000, args={"rows": 6}),
            span("update.dense", 10_000_000, 1_000_000),
        ]
        agg = aggregate(spans)
        gemm = agg["mlp.gemm.fwd"]
        assert gemm["count"] == 2
        assert gemm["total_ms"] == 6.0
        assert gemm["mean_ms"] == 3.0
        assert gemm["counters"] == {"rows": 10}
        # Descending total time.
        assert list(agg) == ["mlp.gemm.fwd", "update.dense"]

    def test_share_denominator_is_step_time_when_present(self):
        spans = [
            span("train.step", 0, 10_000_000),
            span("embedding.gather", 1_000_000, 5_000_000, depth=1),
        ]
        agg = aggregate(spans)
        assert agg["train.step"]["share"] == 1.0
        assert agg["embedding.gather"]["share"] == 0.5

    def test_share_falls_back_to_wall_extent(self):
        # No train.step (a serve-side timeline): shares divide by extent.
        spans = [
            span("serve.infer", 0, 6_000_000),
            span("serve.route", 6_000_000, 2_000_000),
        ]
        agg = aggregate(spans)
        assert agg["serve.infer"]["share"] == 0.75

    def test_empty_timeline(self):
        assert aggregate([]) == {}
        assert stage_table([]) == []

    def test_stage_breakdown_is_versioned(self):
        bd = stage_breakdown([span("train.step", 0, 1_000_000)])
        assert bd["telemetry_schema"] == TELEMETRY_SCHEMA
        assert bd["stages"]["train.step"]["count"] == 1


class TestMergeSpans:
    def test_interleaves_by_start_time_parent_first(self):
        parent = [
            span("train.step", 0, 10, proc="main"),
            span("train.step", 100, 10, proc="main"),
        ]
        worker = [
            span("phase.updates", 0, 5, depth=1, pid=2, proc="worker0:ranks0-1"),
            span("phase.updates", 50, 5, depth=1, pid=2, proc="worker0:ranks0-1"),
        ]
        merged = merge_spans(parent, worker)
        assert [s["ts"] for s in merged] == [0, 0, 50, 100]
        # Equal ts: the shallower (outer) span sorts first.
        assert [s["name"] for s in merged[:2]] == ["train.step", "phase.updates"]
        assert {s["proc"] for s in merged} == {"main", "worker0:ranks0-1"}
