"""Tuning report: JSONL round-trip, schema rejection, record shapes."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import SchemaMismatch
from repro.tune.bottleneck import Bottleneck
from repro.tune.report import TUNE_SCHEMA, write_report
from repro.tune.trial import TrialResult
from repro.tune.tuner import Arm, TuneResult

from tests.tune.report_reader import read_report


def _result() -> TuneResult:
    arms = [Arm(0, {}, "baseline"), Arm(1, {"parallel.bucket_mb": 8.0}, "sampled", 0.1)]
    trials = [
        TrialResult(
            arm_id=i, overlay=a.overlay, rung=0, steps=2, ok=True, score=10.0 + i,
            step_s=0.1, wall_step_s=0.2, breakdown={"comm": 1.0},
            bottleneck=Bottleneck("comm", 1.0, 1.0, "hint", "bucket_mb", +1),
        )
        for i, a in enumerate(arms)
    ]
    return TuneResult(
        winner=arms[1],
        winner_result=trials[1],
        arms=arms,
        rungs=[trials],
        eliminated=[(0, 0)],
    )


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "report.jsonl"
        n = write_report(path, _result(), '{"name": "x"}', header_extra={"seed": 3})
        header, records = read_report(path)
        assert header["tune_schema"] == TUNE_SCHEMA
        assert header["seed"] == 3
        assert header["records"] == n == len(records)
        kinds = [r["type"] for r in records]
        assert kinds.count("arm") == 2
        assert kinds.count("trial") == 2
        assert kinds[-2:] == ["elimination", "result"]

    def test_result_record_carries_spec_and_attribution(self, tmp_path):
        path = tmp_path / "report.jsonl"
        write_report(path, _result(), '{"name": "x"}')
        _, records = read_report(path)
        final = records[-1]
        assert final["winner"] == 1
        assert json.loads(final["spec"]) == {"name": "x"}
        trial = next(r for r in records if r["type"] == "trial")
        assert trial["bottleneck"]["stage"] == "comm"
        assert trial["stages"] == {"comm": 1.0}
        elim = next(r for r in records if r["type"] == "elimination")
        assert elim["order"] == [{"rung": 0, "arm": 0}]


class TestRejection:
    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "report.jsonl"
        write_report(path, _result(), "{}")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["tune_schema"] = TUNE_SCHEMA + 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(SchemaMismatch, match="tune_schema"):
            read_report(path)

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.obs.export import write_jsonl

        path = tmp_path / "trace.jsonl"
        write_jsonl([], path)  # a telemetry trace, not a tune report
        with pytest.raises(ValueError, match="repro-tune-report"):
            read_report(path)

    def test_headerless_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"type": "trial"}\n')
        with pytest.raises(ValueError):
            read_report(path)
