"""Exporters: structured JSONL events and Chrome ``trace_event`` files.

Both formats carry :data:`~repro.obs.tracer.TELEMETRY_SCHEMA`:

* **JSONL** -- line 1 is a header record (``{"type": "header",
  "telemetry_schema": N, "kernels": "native" | "numpy", ...}``: the
  kernel tier the writing process ran, an additive key readers may
  ignore), every following line is one span
  exactly as drained (``name``/``ts``/``dur`` in ns/``depth``/``tid``/
  ``pid``/``proc``/optional ``args``).  This is the lossless archival
  format ``repro trace`` reads back.
* **Chrome trace** -- the ``trace_event`` JSON Perfetto and
  ``chrome://tracing`` open directly: one complete ("ph": "X") event
  per span with microsecond timestamps normalised to the earliest span,
  one process lane per traced process (the parent plus each process-rank
  worker, so a merged timeline is rank-attributed by lane), and process
  ``M``etadata naming the lanes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.kernels import native
from repro.obs.tracer import TELEMETRY_SCHEMA


class SchemaMismatch(RuntimeError):
    """A telemetry file was written under a different schema version."""


# -- JSONL ---------------------------------------------------------------------
#
# Every JSONL artifact the project writes (telemetry traces here, tuning
# reports in repro.tune.report) shares one envelope: line 1 is a header
# record carrying a ``kind`` tag and a schema-version field, every later
# line is one payload record.  The two generic helpers below own that
# envelope, so a new versioned artifact never re-invents the
# header/version-check dance (or forgets the rejection half of it).


def write_versioned_jsonl(
    path: str | Path,
    kind: str,
    schema_field: str,
    schema_version: int,
    records: Iterable[dict[str, Any]],
    header_extra: dict[str, Any] | None = None,
) -> int:
    """Write header + records; returns the record count."""
    records = list(records)
    header: dict[str, Any] = {
        "type": "header",
        "kind": kind,
        schema_field: schema_version,
        "records": len(records),
    }
    if header_extra:
        header.update(header_extra)
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return len(records)


def read_versioned_jsonl(
    path: str | Path,
    kind: str,
    schema_field: str,
    schema_version: int,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read ``(header, records)`` back, enforcing kind + schema version.

    Raises :class:`SchemaMismatch` when the file was written under a
    different schema version -- versioned artifacts are rejected rather
    than silently misread.
    """
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("type") != "header" or lines[0].get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} JSONL (missing header)")
    header = lines[0]
    got = header.get(schema_field)
    if got != schema_version:
        raise SchemaMismatch(
            f"{path}: {schema_field} {got} != supported {schema_version}"
        )
    return header, lines[1:]


def write_jsonl(spans: Iterable[dict[str, Any]], path: str | Path) -> int:
    """Write a header + one JSON record per span; returns the span count."""
    spans = list(spans)
    return write_versioned_jsonl(
        path,
        "repro-trace",
        "telemetry_schema",
        TELEMETRY_SCHEMA,
        spans,
        header_extra={"spans": len(spans), "kernels": native.tier()},
    )


def read_jsonl(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a JSONL trace back as ``(header, spans)``.

    Raises :class:`SchemaMismatch` when the file's schema version is not
    this build's -- telemetry files are versioned so consumers never
    silently misread old layouts.
    """
    return read_versioned_jsonl(
        path, "repro-trace", "telemetry_schema", TELEMETRY_SCHEMA
    )


# -- Chrome trace_event --------------------------------------------------------


def chrome_trace_events(spans: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Spans -> trace_event dicts (complete events + process metadata)."""
    spans = list(spans)
    if not spans:
        return []
    t0 = min(s["ts"] for s in spans)
    # One Perfetto process lane per traced OS process; label it with the
    # tracer's proc string (parent = "main", workers carry their rank
    # range), which is what makes a merged timeline rank-attributed.
    procs: dict[int, str] = {}
    events: list[dict[str, Any]] = []
    for s in spans:
        pid = s["pid"]
        procs.setdefault(pid, s.get("proc", f"pid {pid}"))
        event = {
            "name": s["name"],
            "ph": "X",
            "ts": (s["ts"] - t0) / 1e3,
            "dur": s["dur"] / 1e3,
            "pid": pid,
            "tid": s["tid"],
        }
        if s.get("args"):
            event["args"] = s["args"]
        events.append(event)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": label},
        }
        for pid, label in sorted(procs.items())
    ]
    return meta + events


def write_chrome_trace(spans: Iterable[dict[str, Any]], path: str | Path) -> int:
    """Write a Perfetto-loadable trace file; returns the span count."""
    events = chrome_trace_events(spans)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"kind": "repro-trace", "telemetry_schema": TELEMETRY_SCHEMA},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    n_meta = sum(1 for e in events if e["ph"] == "M")
    return len(events) - n_meta
