"""Host fingerprint and the environment every workload child runs under."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
REPO = SUITE.parent.parent
SRC = REPO / "src"
OUT = SUITE / "out"

#: BLAS pools are pinned to one thread: the workloads run inline on one
#: core, and an unpinned OpenBLAS would spread GEMMs over both cores of
#: this host and time the scheduler instead of the code.
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """The parent's environment with BLAS pinned and ``src`` importable."""
    env = dict(os.environ)
    for var in BLAS_PINS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def refuse_reason() -> str | None:
    """Why this process must not measure, or None when it may."""
    if os.environ.get("REPRO_WORKERS", "").strip():
        return "REPRO_WORKERS is set: the workloads are defined at pool width 1"
    missing = [v for v in BLAS_PINS if os.environ.get(v) != "1"]
    if missing:
        return f"BLAS pins absent ({', '.join(missing)} must be 1); start through run.py"
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def fingerprint(load_before: tuple[float, float, float]) -> dict[str, object]:
    """What a reader needs to decide whether two results are comparable."""
    import numpy as np

    from repro.exec import pool

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_pins": {v: os.environ.get(v) for v in BLAS_PINS},
        # The allocator is only retuned when a multi-worker pool is
        # created; the suite runs at width 1, so False is expected.
        "allocator_tuned": bool(pool._allocator_tuned),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }
