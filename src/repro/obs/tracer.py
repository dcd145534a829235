"""The span recorder: per-thread ring buffers behind one global switch.

Design constraints, in order:

1. **Disabled cost ~ zero.**  Instrumented hot paths call
   :func:`trace` unconditionally; when no tracer is installed that is
   one module-global load, one comparison and a shared no-op context
   manager -- no allocation besides the kwargs dict the call site built.
   ``tests/obs/test_tracer.py`` counts that a step with tracing off
   calls no tracer method at all.
2. **Enabled cost = a clock read and an index bump.**  A finished span
   is one tuple written into a fixed-size per-thread ring
   (``buf[count % capacity]``); no locks on the hot path (each thread
   owns its ring), no growth, no I/O.  When a ring wraps, the oldest
   spans are dropped and counted, never silently lost.
3. **Bit-identity neutral.**  Spans only *observe* existing calls --
   they never reorder work, touch arrays, or consume RNG state, so a
   traced run's losses/checkpoints/virtual clocks are bitwise the
   untraced run's (pinned by ``tests/obs/test_bit_identity.py``).

Timestamps are ``time.perf_counter_ns()``: CLOCK_MONOTONIC on Linux,
whose epoch is machine-wide, so spans drained from the worker processes
of :mod:`repro.exec.mp` merge with the parent's on one comparable axis.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

#: Version of every exported telemetry payload (JSONL header, Chrome
#: trace metadata, the bench JSON's per-stage breakdown).  Bump on any
#: change to span fields or aggregate layout; consumers fail loudly on
#: a mismatch instead of misreading old files.
TELEMETRY_SCHEMA = 1

#: Default per-thread ring capacity (spans); override per Tracer.
DEFAULT_CAPACITY = 16384


class _NullSpan:
    """The shared disabled-path context manager (a singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def add(self, **counters: float) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Ring:
    """One thread's fixed-capacity span buffer."""

    __slots__ = ("buf", "cap", "count")

    def __init__(self, cap: int):
        self.buf: list = [None] * cap
        self.cap = cap
        self.count = 0

    def records(self) -> list:
        """Surviving records, oldest first."""
        if self.count <= self.cap:
            return self.buf[: self.count]
        head = self.count % self.cap
        return self.buf[head:] + self.buf[:head]

    @property
    def dropped(self) -> int:
        return max(0, self.count - self.cap)


class _ThreadState(threading.local):
    """Per-thread recording state: the ring plus the live nesting depth."""

    def __init__(self) -> None:
        self.ring: _Ring | None = None
        self.depth = 0
        self.tid = 0


class _Span:
    """A live span; records itself on ``__exit__``."""

    __slots__ = ("_state", "_t0", "name", "counters")

    def __init__(self, state: _ThreadState, name: str, counters: dict | None):
        self._state = state
        self.name = name
        self.counters = counters

    def add(self, **counters: float) -> "_Span":
        """Attach/merge counters discovered mid-span (cache hits, ...)."""
        if self.counters is None:
            self.counters = counters
        else:
            self.counters.update(counters)
        return self

    def __enter__(self) -> "_Span":
        self._state.depth += 1
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        t0 = self._t0
        dur = time.perf_counter_ns() - t0
        state = self._state
        state.depth -= 1
        ring = state.ring
        assert ring is not None
        ring.buf[ring.count % ring.cap] = (
            self.name, t0, dur, state.depth, state.tid, self.counters,
        )
        ring.count += 1
        return False


class Tracer:
    """Records spans from any thread of one process.

    ``proc`` labels the drained spans (and the Perfetto process lane):
    ``"main"`` for the driving process, ``"worker<i>:ranks<lo>-<hi>"``
    for a process-rank worker.  ``drain`` is destructive (rings reset);
    ``snapshot`` is not.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, proc: str = "main"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.proc = proc
        self._state = _ThreadState()
        self._rings: dict[int, _Ring] = {}
        self._lock = threading.Lock()
        self._tid_seq = 0

    # -- recording ----------------------------------------------------------

    def _thread_state(self) -> _ThreadState:
        state = self._state
        if state.ring is None:
            ring = _Ring(self.capacity)
            with self._lock:
                self._tid_seq += 1
                state.tid = self._tid_seq
                self._rings[threading.get_ident()] = ring
            state.ring = ring
        return state

    def span(self, name: str, counters: dict | None = None) -> _Span:
        """A context manager timing one named, possibly nested, region."""
        return _Span(self._thread_state(), name, counters)

    # -- introspection ------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Spans lost to ring wraparound since the last drain."""
        with self._lock:
            return sum(r.dropped for r in self._rings.values())

    def _collect(self, reset: bool) -> list[dict[str, Any]]:
        pid = os.getpid()
        with self._lock:
            rings = list(self._rings.values())
        spans: list[dict[str, Any]] = []
        for ring in rings:
            for name, t0, dur, depth, tid, counters in ring.records():
                rec: dict[str, Any] = {
                    "name": name,
                    "ts": t0,
                    "dur": dur,
                    "depth": depth,
                    "tid": tid,
                    "pid": pid,
                    "proc": self.proc,
                }
                if counters:
                    rec["args"] = dict(counters)
                spans.append(rec)
            if reset:
                ring.count = 0
        spans.sort(key=lambda s: (s["ts"], s["depth"]))
        return spans

    def snapshot(self) -> list[dict[str, Any]]:
        """Recorded spans so far, sorted by start time (non-destructive)."""
        return self._collect(reset=False)

    def drain(self) -> list[dict[str, Any]]:
        """Recorded spans, sorted by start time; resets every ring."""
        return self._collect(reset=True)


# -- the global switch ---------------------------------------------------------

_TRACER: Tracer | None = None


def set_tracer(tracer: Tracer | None) -> None:
    """Install (or with ``None`` remove) the process-wide tracer."""
    global _TRACER
    _TRACER = tracer


def get_tracer() -> Tracer | None:
    return _TRACER


def enabled() -> bool:
    return _TRACER is not None


def trace(name: str, **counters: float):
    """Open a span named ``name`` on the installed tracer.

    The instrumentation entry point: cheap enough to leave in every hot
    path.  With no tracer installed it returns a shared no-op context
    manager.  Counters are numeric annotations (rows, bytes, hits ...)
    carried into the exported event's ``args``.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, counters or None)


def drain_current() -> list[dict[str, Any]]:
    """Drain the installed tracer (empty list when tracing is off)."""
    tracer = _TRACER
    return tracer.drain() if tracer is not None else []
