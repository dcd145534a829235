"""Scripts that only CI's figure and chaos jobs run still import.

``benchmarks/bench_*.py`` and ``benchmarks/chaos_smoke.py`` are not part
of the tier-1 suite, so an import path they use that moves or goes away
would not fail here.  This loads each of them, without running anything,
in a fresh interpreter (``chaos_smoke`` sets environment variables as it
loads).  It also imports the modules that once needed a lazy package
loader to break a cycle, each first in its own interpreter, so import
order cannot hide a cycle.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH = REPO / "benchmarks"
SCRIPTS = sorted(BENCH.glob("bench_*.py")) + [BENCH / "chaos_smoke.py"]

LOAD = """
import importlib.util, sys
for path in sys.argv[1:]:
    spec = importlib.util.spec_from_file_location("_entry_" + path.rsplit("/", 1)[-1][:-3], path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""


def _run(code, *args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=REPO, env=env, capture_output=True,
        text=True, timeout=60,
    )


def test_every_benchmark_script_imports():
    assert len(SCRIPTS) > 10
    res = _run(LOAD, *map(str, SCRIPTS))
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize(
    "module", ["repro.resilience.ring", "repro.exec.mp", "repro.resilience"]
)
def test_imports_first_in_a_fresh_interpreter(module):
    res = _run(f"import {module}")
    assert res.returncode == 0, res.stderr
