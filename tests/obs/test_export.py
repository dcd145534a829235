"""Export round trips: versioned JSONL and Chrome trace_event output."""

import json

import pytest

from repro.obs import Tracer
from repro.obs.export import read_jsonl, write_chrome_trace, write_jsonl
from repro.obs.tracer import TELEMETRY_SCHEMA
from repro.obs.export import SchemaMismatch, chrome_trace_events


def recorded_spans():
    t = Tracer(proc="main")
    with t.span("train.step", {"rows": 8}):
        with t.span("embedding.gather"):
            pass
    return t.drain()


class TestJsonl:
    def test_round_trip_preserves_spans_exactly(self, tmp_path):
        spans = recorded_spans()
        path = tmp_path / "run.jsonl"
        assert write_jsonl(spans, path) == len(spans)
        header, back = read_jsonl(path)
        assert header["kind"] == "repro-trace"
        assert header["telemetry_schema"] == TELEMETRY_SCHEMA
        assert header["spans"] == len(spans)
        assert back == spans

    def test_header_names_the_kernel_tier_without_a_schema_bump(self, tmp_path):
        """``kernels`` is an additive header key: the schema stays 1, a
        file without the key (written before the native tier) still
        reads, and the spans of a file with it are untouched."""
        from repro.kernels import native

        assert TELEMETRY_SCHEMA == 1
        spans = recorded_spans()
        path = tmp_path / "run.jsonl"
        write_jsonl(spans, path)
        header, back = read_jsonl(path)
        assert header["kernels"] == native.tier() and header["kernels"] in ("native", "numpy")
        lines = path.read_text().splitlines()
        old = {k: v for k, v in json.loads(lines[0]).items() if k != "kernels"}
        path.write_text("\n".join([json.dumps(old)] + lines[1:]) + "\n")
        assert read_jsonl(path) == (old, back) and back == spans

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.jsonl"
        write_jsonl(recorded_spans(), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["telemetry_schema"] = TELEMETRY_SCHEMA + 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(SchemaMismatch):
            read_jsonl(path)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x", "ts": 0}\n')
        with pytest.raises(ValueError, match="missing header"):
            read_jsonl(path)


class TestChromeTrace:
    def test_events_normalised_and_labelled(self):
        spans = recorded_spans()
        events = chrome_trace_events(spans)
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(spans)
        # One process_name metadata record labelling the lane.
        assert [m["args"]["name"] for m in meta] == ["main"]
        # Timestamps are micros normalised to the earliest span.
        assert min(e["ts"] for e in complete) == 0.0
        by_name = {e["name"]: e for e in complete}
        assert by_name["train.step"]["args"] == {"rows": 8}

    def test_empty_timeline_yields_no_events(self):
        assert chrome_trace_events([]) == []

    def test_file_is_versioned_json(self, tmp_path):
        spans = recorded_spans()
        path = tmp_path / "trace.json"
        assert write_chrome_trace(spans, path) == len(spans)
        payload = json.loads(path.read_text())
        assert payload["otherData"]["telemetry_schema"] == TELEMETRY_SCHEMA
        assert len(payload["traceEvents"]) == len(spans) + 1  # + process_name
