"""Streaming per-table row-access frequency statistics.

The tiering planner needs, per embedding table, an estimate of which
rows absorb the look-up traffic and how much of it they absorb.  Two
counter families cover the table-size spectrum:

* :class:`ExactCounter` -- one int64 slot per row.  Exact, cheap for the
  small/medium tables that dominate table *counts* in every config.
* :class:`SketchCounter` -- a count-min sketch plus an exact top-K heap,
  for tables whose row count makes a dense counter wasteful.  Count-min
  only ever *over*-estimates, and the planner consumes the top-K head
  (where relative error is smallest), so the hot set it extracts is
  robust to sketch collisions.

:class:`FreqStats` owns one counter per table and is fed by
``record(table, indices)`` / ``record_batch(batch)`` with a batch's index
vectors (the profiling pass of ``placement="auto"`` and of tiering).

``snapshot()`` freezes the counters into an immutable
:class:`FreqSnapshot` the planner consumes; ``reset()`` clears them so
snapshots can window by epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.lookup import check_ids
from repro.kernels.reference import scatter_add

#: Tables at or below this row count always get an exact counter.
EXACT_ROWS_THRESHOLD = 1 << 20

#: Default count-min geometry: 4 rows of 64K buckets = 2 MiB per table.
SKETCH_DEPTH = 4
SKETCH_WIDTH = 1 << 16

#: Odd 64-bit multipliers (splitmix64 constants) seeding the sketch's
#: per-depth universal hashes.
_HASH_MULTIPLIERS = (
    0x9E3779B97F4A7C15,
    0xBF58476D1CE4E5B9,
    0x94D049BB133111EB,
    0xD6E8FEB86659FD93,
    0xA5A5A5A5A5A5A5A5,
    0xC2B2AE3D27D4EB4F,
)


class ExactCounter:
    """Dense exact row-access counts for one table."""

    exact = True

    def __init__(self, rows: int):
        if rows <= 0:
            raise ValueError("rows must be positive")
        self.rows = int(rows)
        self.counts = np.zeros(self.rows, dtype=np.int64)
        self.total = 0

    def record(self, indices: np.ndarray) -> None:
        idx = check_ids(np.ravel(indices), self.rows, "frequency counts")
        if idx.size == 0:
            return
        self.counts += np.bincount(idx, minlength=self.rows)
        self.total += int(idx.size)

    def estimate(self, rows: np.ndarray) -> np.ndarray:
        return self.counts[np.asarray(rows, dtype=np.int64)]

    def topk(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(row_ids, counts) of the ``k`` most-accessed rows.

        Ordered by descending count with ascending-row-id tie-breaks, so
        the hot set is deterministic across runs and processes.
        """
        k = min(int(k), self.rows)
        if k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        # Sort by (-count, row): lexsort's last key is primary.
        order = np.lexsort((np.arange(self.rows), -self.counts))[:k]
        return order.astype(np.int64), self.counts[order]

    def reset(self) -> None:
        self.counts[:] = 0
        self.total = 0


class SketchCounter:
    """Count-min sketch + exact top-K head for one large table.

    The sketch answers point estimates with one-sided error (never an
    undercount); the top-K head keeps the exact identity of the heavy
    hitters the planner pins hot.  Membership of the head is maintained
    lazily: each ``record`` re-ranks the union of the current head and
    the batch's distinct rows by sketch estimate.
    """

    exact = False

    def __init__(
        self,
        rows: int,
        k: int = 65536,
        width: int = SKETCH_WIDTH,
        depth: int = SKETCH_DEPTH,
    ):
        if rows <= 0:
            raise ValueError("rows must be positive")
        if not 1 <= depth <= len(_HASH_MULTIPLIERS):
            raise ValueError(f"depth must be in [1, {len(_HASH_MULTIPLIERS)}]")
        if width < 16:
            raise ValueError("width must be >= 16")
        self.rows = int(rows)
        self.k = int(k)
        self.width = int(width)
        self.depth = int(depth)
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0
        #: Exact candidate head: row -> last sketch estimate.
        self._head: dict[int, int] = {}

    def _buckets(self, rows: np.ndarray) -> np.ndarray:
        """(depth, n) bucket ids of ``rows`` under the universal hashes."""
        r = np.asarray(rows, dtype=np.uint64)
        out = np.empty((self.depth, r.shape[0]), dtype=np.int64)
        for d in range(self.depth):
            with np.errstate(over="ignore"):
                h = r * np.uint64(_HASH_MULTIPLIERS[d])
            out[d] = (h >> np.uint64(64 - 16)).astype(np.int64) % self.width
        return out

    def record(self, indices: np.ndarray) -> None:
        idx = check_ids(np.ravel(indices), self.rows, "frequency counts")
        if idx.size == 0:
            return
        uniq, counts = np.unique(idx, return_counts=True)
        buckets = self._buckets(uniq)
        for d in range(self.depth):
            scatter_add(self.table[d], buckets[d], counts)
        self.total += int(idx.size)
        # Refresh the head over (current head + this batch's rows).
        cand = np.union1d(np.fromiter(self._head, dtype=np.int64, count=len(self._head)), uniq)
        est = self.estimate(cand)
        if cand.shape[0] > self.k:
            keep = np.lexsort((cand, -est))[: self.k]
            cand, est = cand[keep], est[keep]
        self._head = dict(zip(cand.tolist(), est.tolist()))

    def estimate(self, rows: np.ndarray) -> np.ndarray:
        r = np.asarray(rows, dtype=np.int64)
        if r.size == 0:
            return np.empty(0, dtype=np.int64)
        buckets = self._buckets(r)
        est = self.table[0][buckets[0]]
        for d in range(1, self.depth):
            est = np.minimum(est, self.table[d][buckets[d]])
        return est

    def topk(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not self._head or k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        rows = np.fromiter(self._head, dtype=np.int64, count=len(self._head))
        counts = np.fromiter(self._head.values(), dtype=np.int64, count=len(self._head))
        order = np.lexsort((rows, -counts))[: min(int(k), rows.shape[0])]
        return rows[order], counts[order]

    def reset(self) -> None:
        self.table[:] = 0
        self.total = 0
        self._head = {}


def TableFreq(rows: int):
    """The right counter for a table of ``rows`` rows."""
    if rows <= EXACT_ROWS_THRESHOLD:
        return ExactCounter(rows)
    return SketchCounter(rows)


@dataclass(frozen=True)
class FreqSnapshot:
    """Immutable per-table frequency summary the planner consumes."""

    table_rows: tuple[int, ...]
    #: Per-table total recorded look-ups.
    totals: tuple[int, ...]
    #: Per-table (row_ids, counts) heads, descending count.
    heads: tuple[tuple[np.ndarray, np.ndarray], ...]
    #: Per-table exactness flag (False = count-min estimates).
    exact: tuple[bool, ...]

    def hot_set(self, table: int, budget_rows: int) -> tuple[np.ndarray, float]:
        """(hot_row_ids, coverage) for pinning ``budget_rows`` rows.

        ``coverage`` is the fraction of the table's recorded look-ups the
        hot set absorbs (0.0 when nothing was recorded).  Row ids come
        back sorted ascending -- the storage layout order.
        """
        rows, counts = self.heads[table]
        take = min(int(budget_rows), rows.shape[0])
        hot = rows[:take]
        total = self.totals[table]
        coverage = float(counts[:take].sum()) / total if total else 0.0
        return np.sort(hot), min(1.0, coverage)


class FreqStats:
    """Per-table streaming frequency counters for one model config."""

    def __init__(self, table_rows):
        if not table_rows:
            raise ValueError("table_rows must be non-empty")
        self.table_rows = tuple(int(m) for m in table_rows)
        self.counters = [TableFreq(m) for m in self.table_rows]

    # -- feeding -----------------------------------------------------------

    def record(self, table: int, indices: np.ndarray) -> None:
        self.counters[table].record(indices)

    def record_batch(self, batch) -> None:
        """Record every table's index vector of one training batch."""
        for t in range(len(self.table_rows)):
            self.record(t, batch.indices[t])

    # -- consuming ---------------------------------------------------------

    def snapshot(self, head_rows: int = 65536) -> FreqSnapshot:
        heads = tuple(c.topk(head_rows) for c in self.counters)
        return FreqSnapshot(
            table_rows=self.table_rows,
            totals=tuple(c.total for c in self.counters),
            heads=heads,
            exact=tuple(c.exact for c in self.counters),
        )

    def reset(self) -> None:
        for counter in self.counters:
            counter.reset()
