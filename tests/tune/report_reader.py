"""The tuning report's reader: what the tests and CI's tune smoke check a
written report with (plain imports, so it runs without pytest)."""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.export import read_versioned_jsonl
from repro.tune.report import _KIND, TUNE_SCHEMA


def read_report(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read ``(header, records)``; raises
    :class:`~repro.obs.export.SchemaMismatch` on version skew and
    ``ValueError`` on files that are not tuning reports."""
    return read_versioned_jsonl(path, _KIND, "tune_schema", TUNE_SCHEMA)
