"""Cache-line contention and load-imbalance model for embedding updates.

Section III-A of the paper explains why the four sparse-update strategies
differ *only* in time, never in numerics:

* **atomic XCHG / RTM** both require the written cache line to be owned
  exclusively by the writing core.  When the same embedding row appears
  many times in a minibatch and its occurrences are spread over threads,
  the row's cache lines ping-pong between core caches ("excessive cache
  line thrashing").  On the Criteo terabyte index distribution this costs
  ~10x (Fig. 8: 75.7 ms atomic vs. 5.9 ms race-free embeddings); on the
  small config's uniform indices "there is little contention" and all
  optimised strategies tie.
* **race-free** (Alg. 4) partitions table *rows* over threads; every
  thread scans the whole index list but only touches rows in its range.
  No contention is possible, but a clustered index distribution leaves
  some threads with most of the work (load imbalance).

The statistic that separates the two regimes is not the raw duplicate
count -- uniform draws also collide occasionally, but those collisions
are spread far apart in time and the line has long left the other core's
cache.  What hurts is a *hot* row whose occurrence count is large
relative to a thread's share of the minibatch: its updates are
temporally concurrent across cores and serialise on line transfers.
:class:`IndexStats.conflicts` captures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.lookup import check_ids


@dataclass(frozen=True)
class IndexStats:
    """Summary statistics of one embedding table's minibatch index vector.

    All fields are derived by :func:`index_stats` for a concrete thread
    count; ``conflicts`` and ``imbalance`` encode Alg. 3's contention and
    Alg. 4's partitioning, respectively.
    """

    #: Total number of look-ups (NS = sum of bag sizes).
    total: int
    #: Number of distinct rows touched.
    unique: int
    #: Number of *excess* occurrences: total - unique.
    duplicates: int
    #: Largest single-row occurrence count (the Zipf head).
    max_count: int
    #: Rows of the table (M).
    table_rows: int
    #: Expected number of *serialised* duplicate updates: for each row,
    #: (count - 1) weighted by the probability that its occurrences are
    #: temporally concurrent across threads, min(1, count * T / NS).
    conflicts: float
    #: Load imbalance of Alg. 4's equal-row-range partition over T
    #: threads: max per-range count / mean per-range count.
    imbalance: float


def index_stats(indices: np.ndarray, table_rows: int, threads: int = 28) -> IndexStats:
    """Compute :class:`IndexStats` for one table's index vector.

    The imbalance statistic follows Alg. 4's equal-row-range partition:
    row ``r`` is counted for thread ``floor(r*T/M)``, one update per
    index.  When ``T`` divides ``M`` that is exactly
    :func:`~repro.kernels.threads.static_partition`'s
    ``[M*t//T, M*(t+1)//T)``; otherwise the two roundings put the range
    boundaries a row apart (M=10, T=4: per-thread row counts
    ``[3, 2, 3, 2]`` here against ``[2, 3, 2, 3]`` there).  The recorded
    rank clocks are priced with this formula, so it stays as it is
    (``tests/hw/test_cache.py`` pins both sides).
    """
    if table_rows <= 0:
        raise ValueError("table_rows must be positive")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    idx = np.asarray(indices).ravel()
    total = int(idx.size)
    if total == 0:
        return IndexStats(0, 0, 0, 0, int(table_rows), 0.0, 1.0)
    uniq, counts = np.unique(check_ids(idx, table_rows, "index_stats"), return_counts=True)
    # Concurrency-weighted conflicts: a row with count c keeps a line hot
    # across cores when c is comparable to a thread's share NS/T of the
    # index stream.
    concurrency = np.minimum(1.0, counts * threads / total)
    conflicts = float(np.sum((counts - 1) * concurrency))
    # Row r is counted for thread floor(r * T / M) (see the docstring).
    owner = (uniq.astype(np.int64) * threads) // int(table_rows)
    per_thread = np.bincount(owner, weights=counts, minlength=threads)
    mean = total / threads
    imbalance = float(per_thread.max() / mean) if mean > 0 else 1.0
    return IndexStats(
        total=total,
        unique=int(uniq.size),
        duplicates=total - int(uniq.size),
        max_count=int(counts.max()),
        table_rows=int(table_rows),
        conflicts=conflicts,
        imbalance=max(1.0, imbalance),
    )


class ContentionModel:
    """Converts :class:`IndexStats` into strategy-specific time penalties."""

    def __init__(
        self,
        line_transfer_ns: float,
        atomic_instr_ns: float,
        rtm_speedup: float,
        cacheline_bytes: int = 64,
    ):
        if line_transfer_ns < 0 or atomic_instr_ns < 0:
            raise ValueError("latencies must be >= 0")
        if not 0 < rtm_speedup <= 1.0:
            raise ValueError("rtm_speedup must be in (0, 1]")
        self.line_transfer_ns = line_transfer_ns
        self.atomic_instr_ns = atomic_instr_ns
        self.rtm_speedup = rtm_speedup
        self.cacheline_bytes = cacheline_bytes

    def thrash_time(self, stats: IndexStats, row_bytes: float) -> float:
        """Serialised cache-line transfer time of the contended updates."""
        lines = max(1.0, row_bytes / self.cacheline_bytes)
        return stats.conflicts * lines * self.line_transfer_ns * 1e-9

    def atomic_overhead_time(self, stats: IndexStats, row_bytes: float) -> float:
        """Per-element atomic-XCHG instruction overhead (scalar cmpxchg
        loop instead of SIMD FMA; paper Sect. III-A option 1)."""
        lines = max(1.0, row_bytes / self.cacheline_bytes)
        return stats.total * lines * self.atomic_instr_ns * 1e-9

    def racefree_imbalance(self, stats: IndexStats) -> float:
        """Completion-time multiplier of the row-partitioned update: the
        slowest thread's share over the mean share."""
        return stats.imbalance
