"""Embedding-row cache: the hot-row fast tier of the serving path.

Inference on recommendation models is dominated by embedding-table
locality (Gupta et al.): the Zipf head of the id distribution is a tiny
fraction of the table but absorbs most look-ups, so a software-managed
fast tier (rows pinned in LLC / HBM / a local DRAM pool in front of
remote memory) converts most of the random-gather traffic into cheap
hits.  This module models that tier as an exact LRU or LFU row cache.

Granularity is one *gather* (one ``access`` call = one table's index
vector of a micro-batch), which matches the hardware reality: duplicate
rows within a single gather are served from the row buffer / L1 whatever
the tier does, so they count as hits.  That within-gather reuse is
exactly the ``duplicates`` statistic of :func:`repro.hw.cache.index_stats`,
which this module layers on rather than re-deriving; the same
:class:`~repro.hw.cache.IndexStats` also travels up to the cost model so
hit-rate and contention come from one definition.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.hw.cache import IndexStats, index_stats

#: Replacement policies.
POLICIES = ("lru", "lfu")


@dataclass(frozen=True)
class CacheReport:
    """Outcome of one gather against the cache."""

    hits: int
    misses: int
    #: Locality statistics of the gathered index vector (hw/cache.py).
    stats: IndexStats

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class EmbeddingCache:
    """Exact LRU/LFU cache over (table, row) keys with row-count capacity.

    ``table_rows`` fixes the id range per table (indices are validated
    against it by :func:`index_stats`); ``capacity_rows`` bounds the
    total resident rows across all tables, modelling one shared fast
    tier per socket rather than a per-table budget.
    """

    def __init__(
        self,
        capacity_rows: int,
        table_rows: tuple[int, ...] | list[int],
        policy: str = "lru",
    ):
        if capacity_rows < 1:
            raise ValueError("capacity_rows must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if not table_rows or any(m <= 0 for m in table_rows):
            raise ValueError("table_rows must be non-empty and positive")
        self.capacity_rows = int(capacity_rows)
        self.table_rows = tuple(int(m) for m in table_rows)
        self.policy = policy
        #: LRU order book: key -> None, least-recent first.
        self._lru: OrderedDict[tuple[int, int], None] = OrderedDict()
        #: LFU frequencies + lazy min-heap of (freq, seq, key).
        self._freq: dict[tuple[int, int], int] = {}
        self._heap: list[tuple[int, int, tuple[int, int]]] = []
        self._seq = 0
        #: Cumulative counters across all accesses.
        self.hits = 0
        self.misses = 0

    # -- the one mutating operation -----------------------------------------

    def access(self, table: int, indices: np.ndarray) -> CacheReport:
        """Run one gather's index vector through the cache.

        Returns the per-gather :class:`CacheReport`; cumulative counters
        update as a side effect.  Within-gather duplicates count as hits
        (see module docstring); each distinct row is a hit iff resident.
        """
        if not 0 <= table < len(self.table_rows):
            raise ValueError(f"table {table} out of range")
        idx = np.asarray(indices).ravel()
        stats = index_stats(idx, self.table_rows[table])
        if stats.total == 0:
            return CacheReport(hits=0, misses=0, stats=stats)
        uniq, counts = np.unique(idx, return_counts=True)
        hits = stats.duplicates  # within-gather reuse
        misses = 0
        if self.policy == "lru":
            lru = self._lru
            for row in uniq.tolist():
                key = (table, row)
                if key in lru:
                    hits += 1
                    lru.move_to_end(key)
                else:
                    misses += 1
                    lru[key] = None
            while len(lru) > self.capacity_rows:
                lru.popitem(last=False)
        else:
            freq = self._freq
            for row, c in zip(uniq.tolist(), counts.tolist()):
                key = (table, row)
                if key in freq:
                    hits += 1
                else:
                    misses += 1
                    freq[key] = 0
                freq[key] += int(c)
                self._seq += 1
                heapq.heappush(self._heap, (freq[key], self._seq, key))
            self._evict_lfu()
        self.hits += hits
        self.misses += misses
        return CacheReport(hits=hits, misses=misses, stats=stats)

    def _evict_lfu(self) -> None:
        """Pop stale heap entries until the resident set fits."""
        freq, heap = self._freq, self._heap
        while len(freq) > self.capacity_rows:
            count, _, key = heapq.heappop(heap)
            # Lazy invalidation: the entry is current only if the key is
            # still resident at exactly this frequency.
            if freq.get(key) == count:
                del freq[key]
