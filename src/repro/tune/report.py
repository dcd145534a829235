"""Tuning report: the versioned JSONL artifact one search emits.

Layout (one JSON object per line, via the shared envelope helpers of
:mod:`repro.obs.export`):

* line 1 -- header: ``{"type": "header", "kind": "repro-tune-report",
  "tune_schema": TUNE_SCHEMA, "records": N, "seed": ..., "budget":
  ..., "measure": ...}``;
* one ``{"type": "arm", ...}`` record per candidate (overlay, origin,
  cost-model prior);
* one ``{"type": "trial", ...}`` record per executed trial (rung,
  steps, score, stage breakdown, bottleneck attribution, error);
* one ``{"type": "elimination", ...}`` record pinning the elimination
  order;
* a final ``{"type": "result", ...}`` record with the winning arm id
  and the complete winning RunSpec/ServeParams JSON.

A reader rejects files whose :data:`TUNE_SCHEMA` differs (raising
:class:`repro.obs.export.SchemaMismatch`) instead of misreading them --
the same versioning contract telemetry traces follow.  Bump the schema
whenever a record field changes meaning.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.export import write_versioned_jsonl
from repro.tune.tuner import TuneResult

#: Version of the tuning-report record layout.
TUNE_SCHEMA = 1

_KIND = "repro-tune-report"


def report_records(
    result: TuneResult, winner_spec_json: str
) -> list[dict[str, Any]]:
    """Flatten a :class:`TuneResult` into report records."""
    records: list[dict[str, Any]] = [arm.as_record() for arm in result.arms]
    for rung in result.rungs:
        records.extend(trial.as_record() for trial in rung)
    records.append(
        {
            "type": "elimination",
            "order": [
                {"rung": rung, "arm": arm_id}
                for rung, arm_id in result.eliminated
            ],
        }
    )
    records.append(
        {
            "type": "result",
            "winner": result.winner.arm_id,
            "score": result.winner_result.score,
            "step_s": result.winner_result.step_s,
            "overlay": dict(result.winner.overlay),
            "spec": winner_spec_json,
        }
    )
    return records


def write_report(
    path: str | Path,
    result: TuneResult,
    winner_spec_json: str,
    header_extra: dict[str, Any] | None = None,
) -> int:
    """Write the report; returns the record count (header excluded)."""
    return write_versioned_jsonl(
        path,
        _KIND,
        "tune_schema",
        TUNE_SCHEMA,
        report_records(result, winner_spec_json),
        header_extra=header_extra,
    )

