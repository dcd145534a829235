"""Tracer mechanics: nesting, ring wraparound, counters, the off switch."""

import threading
from unittest import mock

import pytest

from repro.obs.tracer import (
    _NULL_SPAN,
    Tracer,
    _NullSpan,
    drain_current,
    enabled,
    get_tracer,
    set_tracer,
    trace,
)
from repro.train import RunSpec, make_trainer


@pytest.fixture(autouse=True)
def _no_global_tracer():
    set_tracer(None)
    yield
    set_tracer(None)


class TestSpanRecording:
    def test_nested_spans_carry_depth_and_balance(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        spans = t.drain()
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        assert [s["depth"] for s in by_name["outer"]] == [0]
        assert [s["depth"] for s in by_name["inner"]] == [1, 1]
        # Balanced: every enter exited, so the next span starts at depth 0.
        with t.span("after"):
            pass
        assert t.drain()[0]["depth"] == 0

    def test_children_sorted_after_parent_at_equal_ts(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b"):
                pass
        spans = t.drain()
        order = [(s["name"], s["depth"]) for s in spans]
        assert order.index(("a", 0)) < order.index(("b", 1))
        assert spans == sorted(spans, key=lambda s: (s["ts"], s["depth"]))

    def test_parent_duration_covers_child(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        spans = {s["name"]: s for s in t.drain()}
        o, i = spans["outer"], spans["inner"]
        assert o["ts"] <= i["ts"]
        assert o["ts"] + o["dur"] >= i["ts"] + i["dur"]

    def test_counters_at_open_and_mid_span_merge(self):
        t = Tracer()
        with t.span("s", {"rows": 4}) as sp:
            sp.add(bytes=100)
            sp.add(bytes=7)  # update: last write wins, like dict.update
        (span,) = t.drain()
        assert span["args"] == {"rows": 4, "bytes": 7}

    def test_no_args_key_without_counters(self):
        t = Tracer()
        with t.span("bare"):
            pass
        (span,) = t.drain()
        assert "args" not in span

    def test_drain_resets_snapshot_does_not(self):
        t = Tracer()
        with t.span("x"):
            pass
        assert len(t.snapshot()) == 1
        assert len(t.snapshot()) == 1
        assert len(t.drain()) == 1
        assert t.drain() == []

    def test_threads_get_distinct_tids(self):
        t = Tracer()

        def record():
            with t.span("worker"):
                pass

        th = threading.Thread(target=record)
        th.start()
        th.join()
        with t.span("main"):
            pass
        tids = {s["tid"] for s in t.drain()}
        assert len(tids) == 2


class TestRingWraparound:
    def test_oldest_spans_dropped_and_counted(self):
        t = Tracer(capacity=4)
        for i in range(7):
            with t.span(f"s{i}"):
                pass
        assert t.dropped == 3
        spans = t.drain()
        assert [s["name"] for s in spans] == ["s3", "s4", "s5", "s6"]
        # Drain reset the ring: drop counter starts over.
        assert t.dropped == 0

    def test_exact_capacity_drops_nothing(self):
        t = Tracer(capacity=4)
        for i in range(4):
            with t.span(f"s{i}"):
                pass
        assert t.dropped == 0
        assert len(t.drain()) == 4

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestGlobalSwitch:
    def test_disabled_trace_returns_shared_null_span(self):
        assert not enabled()
        sp = trace("anything", rows=3)
        assert sp is _NULL_SPAN
        with sp as inner:
            assert inner.add(bytes=1) is sp  # chainable no-op
        assert drain_current() == []

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_a_step_with_tracing_off_calls_no_tracer(self, ranks):
        """The disabled-path budget as a count: with no tracer installed
        every span site of a step stops at the None check and enters the
        shared null span -- no Tracer method runs -- and the same sites
        are exactly the spans a traced step records."""
        spec = RunSpec.from_dict({
            "name": "tracer-off",
            "model": {"config": "small", "rows_cap": 256, "minibatch": 32},
            "parallel": {"ranks": ranks},
            "schedule": {"steps": 5, "eval_size": 64},
        })
        trainer = make_trainer(spec)
        trainer.fit(1)
        with mock.patch.object(Tracer, "span", autospec=True) as span, mock.patch.object(
            _NullSpan, "__enter__", autospec=True, side_effect=lambda self: self
        ) as null:
            trainer.fit(2)
        assert span.call_count == 0 and null.call_count > 0
        set_tracer(Tracer(proc="main"))
        trainer.fit(2)
        assert len(trainer.drain_trace_spans()) == null.call_count

    def test_enabled_trace_records_through_global(self):
        t = Tracer(proc="main")
        set_tracer(t)
        assert enabled() and get_tracer() is t
        with trace("step", rows=2):
            pass
        (span,) = drain_current()
        assert span["name"] == "step"
        assert span["proc"] == "main"
        assert span["args"] == {"rows": 2}
