"""A per-rank virtual clock for the simulated SPMD runtime.

Virtual time is pure data: it advances only by explicit ``advance``
calls with model-derived durations, never by reading a host clock, so
clock values are **bit-identical** across execution backends, worker
counts and machines.  That determinism is what makes virtual-clock
throughput comparable across machines (tests bound it exactly) and
tuning runs reproducible (``repro tune --measure virtual``).  Instances
are not thread-safe; each simulated rank owns its own clock.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonically advancing simulated time, in seconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move forward by ``seconds`` (must be non-negative); returns now."""
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time: {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, t: float) -> float:
        """Move forward to absolute time ``t`` if it is in the future."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f}s)"
