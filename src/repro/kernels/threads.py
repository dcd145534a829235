"""Static thread-partitioning helpers (paper Alg. 4 line 1-3, Alg. 5 line 1).

Both the race-free embedding update and the blocked MLP of Alg. 5 (as
the cost model prices it) assign work to threads with closed-form
static ranges: thread ``t`` of ``T`` owns items
``[floor(W*t/T), floor(W*(t+1)/T))``.  These exact ranges serve two
masters: the cost model reads their load-balance statistics (imbalance
penalties match what real threads would see), and the worker pool of
:mod:`repro.exec` *executes* them -- each shard owns one contiguous
range, whichever thread runs it, so sharded kernels write disjoint
output rows and stay bitwise equal to their sequential formulations.
"""

from __future__ import annotations

#: Minimum shardable items (rows, bags, segments) before threads engage.
PARALLEL_MIN_SEGMENTS = 256
#: Minimum total float32 elements a kernel moves before threads engage.
#: The row kernels are memory-bound, so sharding only pays once each
#: worker's range carries megabytes of payload; below this the
#: sequential call wins and the pool is better spent one level up, on
#: whole ranks.
PARALLEL_MIN_ELEMS = 1 << 21


def sharding_pool(items: int, elems: int):
    """The process-wide pool when it is wider than 1 here and the payload
    (``items`` shardable units moving ``elems`` float32 elements) is worth
    the hand-off; else None."""
    from repro.exec.pool import get_pool  # lazy: keeps kernels import-light

    pool = get_pool()
    wide = pool.effective_workers > 1
    return pool if wide and items >= PARALLEL_MIN_SEGMENTS and elems >= PARALLEL_MIN_ELEMS else None


def static_partition(work: int, threads: int) -> list[tuple[int, int]]:
    """Closed-form static ranges over ``work`` items for ``threads`` workers."""
    if work < 0:
        raise ValueError("work must be non-negative")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return [
        ((work * t) // threads, (work * (t + 1)) // threads) for t in range(threads)
    ]

