"""Small pieces the train and serve workloads share."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
#: The untraced timed section runs as windows of this length, each
#: bracketed by two readings of the host's speed (see :class:`HostSpeed`);
#: the end-to-end speed metrics are medians over the windows.  Short
#: windows matter: the host's speed flickers within a second, and pairing
#: each handful of operations with readings taken right beside them
#: cancelled the drift twice as well as readings a second apart.
WINDOW_S = 0.2
#: A timed section never ends before this many operations.
MIN_OPS = 2


@dataclass
class Outcome:
    """What one workload run reports back to the command."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Human-readable context printed beside the metrics (sample
    #: counts, verification results); never parsed.
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one verification as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.notes.append(f"verify {'ok  ' if ok else 'FAIL'} {what}")


def ms(ns_values: list[int], q: float | None = None) -> float:
    """Median (or the ``q``-th percentile) of nanosecond samples, in ms."""
    if q is None:
        return statistics.median(ns_values) / 1e6
    return float(np.percentile(ns_values, q)) / 1e6


class HostSpeed:
    """How much slower than nominal the host runs right now.

    Other tenants of a shared host slow every program on it by the same
    factor, for seconds to minutes at a time: on the 2-vCPU host this
    benchmark was calibrated on, identical 10 s sections of ``train_mlp``
    gave median steps from 66 to 99 ms within the hour.  A fixed
    single-threaded sgemm that touches no code of the repo follows that
    drift (correlation 0.91-0.96 with the step time of the GEMM-bound and
    of the scatter-bound workload alike), so dividing it out leaves the
    program's own speed: the spread between identical sections fell from
    30 % to 4 %.  Time metrics are therefore reported as they would read
    on a host where the kernel takes ``NOMINAL_MS``; on such a host the
    factor is 1 and they are plain wall time.  The raw wall figures and
    the factor are printed beside them.
    """

    NOMINAL_MS = 8.0
    REPS = 3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((512, 1024)).astype(np.float32)
        self._b = rng.standard_normal((1024, 1024)).astype(np.float32)
        self._c = np.empty((512, 1024), dtype=np.float32)

    def slowdown(self) -> float:
        """Best of ``REPS`` kernel times over the nominal one."""
        best = float("inf")
        for _ in range(self.REPS):
            t0 = time.perf_counter_ns()
            np.matmul(self._a, self._b, out=self._c)
            best = min(best, time.perf_counter_ns() - t0)
        return best / 1e6 / self.NOMINAL_MS


def measure_speed(
    seconds: float,
    section: Callable[[float], tuple[list[int], int, float]],
    host: HostSpeed,
) -> tuple[float, float, list[int], float]:
    """Run ``section(WINDOW_S) -> (per-op ns, samples, wall s)`` until the
    windows add up to ``seconds``, reading the host's slowdown before and
    after each.  Returns (samples/s, ms per operation) as medians over the
    windows of the speed-normalised values, then every per-op ns sample
    and the mean slowdown, both raw, for the notes."""
    rates, p50s, all_ns, slows = [], [], [], []
    spent = 0.0
    after = host.slowdown()
    while spent < seconds:
        before = after
        op_ns, samples, wall = section(WINDOW_S)
        after = host.slowdown()
        slow = (before + after) / 2.0
        spent += wall
        rates.append(samples / wall * slow)
        p50s.append(ms(op_ns) / slow)
        all_ns += op_ns
        slows.append(slow)
    return (
        statistics.median(rates), statistics.median(p50s), all_ns, statistics.fmean(slows)
    )


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def states_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
