"""Benchmark harness helpers: render every regenerated table/figure both
to stdout and to ``benchmarks/results/<name>.txt`` so the artefacts
survive pytest's output capturing."""

from __future__ import annotations

import pathlib

import pytest

from repro.util import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def emit():
    """emit(name, rows, columns=None, title="") -> rendered string."""

    def _emit(name: str, rows, columns=None, title: str = "") -> str:
        text = format_table(rows, columns=columns, title=title or name)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}")
        return text

    return _emit
