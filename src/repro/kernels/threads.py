"""Static thread-partitioning helpers (paper Alg. 4 line 1-3, Alg. 5 line 1).

Both the race-free embedding update and the blocked MLP of Alg. 5 (as
the cost model prices it) assign work to threads with closed-form
static ranges: thread ``t`` of ``T`` owns items
``[floor(W*t/T), floor(W*(t+1)/T))``.  These exact ranges serve two
masters: the cost model reads their load-balance statistics (imbalance
penalties match what real threads would see), and the worker pool of
:mod:`repro.exec` *executes* them -- each pool worker owns one
contiguous range, so sharded kernels write disjoint output rows and
stay bitwise equal to their sequential formulations.
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max

#: Minimum shardable items (rows, bags, segments) before threads engage.
PARALLEL_MIN_SEGMENTS = 256
#: Minimum total float32 elements a kernel moves before threads engage.
#: The row kernels are memory-bound, so sharding only pays once each
#: worker's range carries megabytes of payload; below this the
#: sequential call wins and the pool is better spent one level up, on
#: whole ranks.
PARALLEL_MIN_ELEMS = 1 << 21


def resolve_pool(pool):
    if pool is not None:
        return pool
    from repro.exec.pool import get_pool  # lazy: keeps kernels import-light

    return get_pool()


def shardable(pool, items: int, elems: int) -> bool:
    return (
        pool.effective_workers > 1
        and items >= PARALLEL_MIN_SEGMENTS
        and elems >= PARALLEL_MIN_ELEMS
    )


def static_partition(work: int, threads: int) -> list[tuple[int, int]]:
    """Closed-form static ranges over ``work`` items for ``threads`` workers."""
    if work < 0:
        raise ValueError("work must be non-negative")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return [
        ((work * t) // threads, (work * (t + 1)) // threads) for t in range(threads)
    ]


def row_range_for_thread(rows: int, tid: int, threads: int) -> tuple[int, int]:
    """Alg. 4 lines 2-3: the row range owned by thread ``tid``."""
    if not 0 <= tid < threads:
        raise ValueError(f"tid must be in [0, {threads}), got {tid}")
    return (rows * tid) // threads, (rows * (tid + 1)) // threads


def bucket_by_row_ranges(indices: np.ndarray, rows: int, threads: int) -> np.ndarray:
    """Per-thread update counts under Alg. 4's static row partition.

    Thread ``t`` owns rows ``[rows*t // threads, rows*(t+1) // threads)``,
    so row ``i`` belongs to the last ``t`` with ``rows*t < (i+1)*threads``:
    ``((i + 1) * threads - 1) // rows``.  That closed form plus one
    ``bincount`` replaces the ``threads`` full-array mask scans of the
    naive race-free update.  Returns an ``(threads,)`` int64 count
    vector identical to what the mask scans produce.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if rows * threads > _INT64_MAX:
        raise ValueError("rows * threads must fit in int64")
    indices = np.asarray(indices, dtype=np.int64)
    counts = np.bincount(((indices + 1) * threads - 1) // rows, minlength=threads)
    if counts.shape[0] != threads:
        raise IndexError("indices out of range")
    return counts.astype(np.int64, copy=False)
