"""Shared-memory worker heartbeats (:class:`HeartbeatBoard`).

One cache-line-ish record per process-rank worker -- last stamp time
(``time.monotonic_ns``; CLOCK_MONOTONIC is machine-wide, so parent and
worker clocks are directly comparable), last training step, and last
mailbox round sequence.  Workers stamp from their command loop and
piggyback a stamp on every transport round (the mailbox round header
already synchronizes the fleet, so a stamped sequence number doubles as
"I made it into round N"); the parent reads ages to tell a silent hang
from a slow step when a reply deadline expires.

Stamps are advisory, not synchronized: a torn read can only misreport an
age by one stamp interval, which is noise against the multi-second
deadlines that consult it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exec.shm import ShmBlock

#: Per-worker record: (stamp monotonic ns, step, round seq).
_FIELDS = 3


class HeartbeatBoard(ShmBlock):
    """A fixed ``(n_workers, 3)`` int64 grid in named shared memory."""

    def __init__(self, name: str, n_workers: int, create: bool = False):
        super().__init__(name, max(1, n_workers) * _FIELDS * 8 if create else None)
        self.n_workers = n_workers
        grid = np.frombuffer(self._shm.buf, np.int64, n_workers * _FIELDS)
        self._grid = grid.reshape(n_workers, _FIELDS)
        if create:
            self._grid[...] = 0

    # -- worker side ---------------------------------------------------------

    def stamp(self, worker: int, step: int = -1, seq: int = -1) -> None:
        """Record liveness for ``worker`` (negative step/seq = keep old)."""
        row = self._grid[worker]
        if step >= 0:
            row[1] = step
        if seq >= 0:
            row[2] = seq
        # Time last: a reader pairing a fresh time with a stale step only
        # underestimates progress, never liveness.
        row[0] = time.monotonic_ns()

    # -- parent side ---------------------------------------------------------

    def age_s(self, worker: int) -> float | None:
        """Seconds since ``worker`` last stamped (None before any stamp)."""
        stamped = int(self._grid[worker, 0])
        if stamped == 0:
            return None
        return max(0.0, (time.monotonic_ns() - stamped) / 1e9)

    def snapshot(self) -> list[dict[str, float | int | None]]:
        """Per-worker {age_s, step, seq} for failure diagnostics."""
        return [
            {
                "worker": w,
                "age_s": self.age_s(w),
                "step": int(self._grid[w, 1]),
                "seq": int(self._grid[w, 2]),
            }
            for w in range(self.n_workers)
        ]

    def close(self) -> None:
        self._grid = None  # type: ignore[assignment]
        super().close()
