"""The process's one set of threads, and the static shards that use them.

The paper extracts concurrency from 28-core sockets with *static* thread
partitions (Alg. 4/5): every thread owns one range, and the thread that
issues the work takes its own share.  :func:`helpers` holds this
process's only threads -- one single-thread executor per allowed CPU
other than its creator's, each started on its first submit and pinned
to that CPU only by :func:`pinned`; none where one CPU is allowed, and a
forked child drops them.  NumPy kernels and ``ctypes`` calls release the
GIL, so they give genuine wall-clock parallelism on the vectorized hot
paths.

A :class:`WorkerPool` is a width over those threads that keeps every
result reduction in a **fixed order**:

* :meth:`WorkerPool.map` runs task ``i`` on lane ``i mod (H+1)``: lane 0
  is the calling thread, lanes ``1..H`` the first ``H`` helpers, ``H``
  the width minus one or the helper count, the lesser.  Results come back in
  submission order, and a failure is raised only once every lane is
  done, in submission order, so no task still writes when the caller
  sees it;
* :meth:`WorkerPool.run_sharded` hands task ``tid`` the ``[lo, hi)``
  range of :func:`repro.kernels.threads.static_partition` -- the exact
  Alg. 4/5 ranges -- so tasks own disjoint output rows and no summation
  order depends on which lane ran them.

The width fixes the partition; the helpers only decide which thread runs
each shard, so no bit moves at any width or CPU count.  One process-wide
pool (:func:`get_pool`) is shared by the parallel-rank trainer, the
sharded kernels and the prefetching data pipeline.  It is 1 wide (inline,
bit-for-bit the sequential code path) unless :func:`set_pool_workers`
(the CLI's ``--workers``, a spec's ``parallel.exec_workers``) widens it.

Nested parallelism is defused rather than deadlocked: a task running on
any lane, the caller's included, sees an effective width of 1
(:meth:`WorkerPool.effective_workers`), so a kernel called from inside a
parallel rank step runs its sequential path.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Sequence, TypeVar

from repro.kernels.threads import static_partition

T = TypeVar("T")
R = TypeVar("R")

#: Set on threads that are executing a pool task (nested-use guard).
_worker_ctx = threading.local()

_allocator_tuned = False


def tune_allocator_for_threads() -> bool:
    """Stop glibc from mmap-ing/munmap-ing every large NumPy temporary.

    By default glibc serves allocations above 128 KiB straight from
    ``mmap`` and returns them on free.  Multi-threaded NumPy code then
    pays a page-fault storm on every temporary plus TLB-shootdown IPIs
    on every release -- cross-core traffic that serialises exactly the
    kernels the pool is trying to overlap (measured here: the sparse
    update phase ran 2.4x *slower* with two threads until this change).
    Raising ``M_MMAP_THRESHOLD``/``M_TRIM_THRESHOLD`` keeps hot
    temporaries inside the per-thread malloc arenas, where they are
    recycled without any kernel round trip.

    Called once per process when a multi-worker pool is first created;
    a no-op (returning False) off glibc.
    """
    global _allocator_tuned
    if _allocator_tuned:
        return True
    try:
        libc = ctypes.CDLL("libc.so.6")
        m_trim_threshold, m_mmap_threshold = -1, -3
        bound = 64 * 1024 * 1024
        ok = bool(libc.mallopt(m_mmap_threshold, bound)) and bool(
            libc.mallopt(m_trim_threshold, bound)
        )
    except (OSError, AttributeError):  # non-glibc platforms
        return False
    _allocator_tuned = ok
    return ok


#: A helper thread's own CPU, set as it starts (unset on every other thread).
_own = threading.local()


@functools.cache
def helpers() -> tuple[ThreadPoolExecutor, ...]:
    """This process's helper threads: a single-thread executor per allowed
    CPU but the creator's, which it owns (each starts on its first
    submit); none where one CPU is allowed or the platform has no
    affinity calls.  A helper runs free until :func:`pinned` pins it."""
    if not hasattr(os, "sched_getaffinity"):
        return ()
    cpus = sorted(os.sched_getaffinity(0) - {ctypes.CDLL(None).sched_getcpu()})
    return tuple(
        ThreadPoolExecutor(1, f"repro-helper{cpu}", _own.__setattr__, ("cpu", cpu)) for cpu in cpus
    )


def pinned(call: Callable[[], R]) -> R:
    """``call()`` on the running helper, pinned to its own CPU from now on:
    a GIL-free call beside the caller's work needs it (free, the scheduler
    wakes the helper on the caller's CPU), Python-heavy work that trades
    the GIL with the caller runs faster free (docs/ARCHITECTURE.md)."""
    with contextlib.suppress(OSError):  # containers may forbid affinity
        os.sched_setaffinity(0, {_own.cpu})
    return call()


os.register_at_fork(after_in_child=helpers.cache_clear)  # the threads stay in the parent


def _in_worker() -> bool:
    return getattr(_worker_ctx, "active", False)


def _guarded(fn: Callable[..., R], args: tuple) -> R:
    """``fn(*args)`` as a pool task: nested pool use runs inline."""
    _worker_ctx.active = True
    try:
        return fn(*args)
    finally:
        _worker_ctx.active = False


def done(fn: Callable[..., R], *args: Any) -> "Future[R]":
    """``fn(*args)`` run here, as a completed future (an error included)."""
    future: Future[R] = Future()
    try:
        future.set_result(fn(*args))
    except BaseException as exc:  # noqa: BLE001 - mirror executor semantics
        future.set_exception(exc)
    return future


class WorkerPool:
    """A static-shard width over the process's helpers, with fixed-order results.

    ``workers=1`` executes everything inline on the calling thread --
    byte-for-byte the sequential path.  ``workers>1`` runs task ``i`` on
    lane ``i mod (H+1)`` (lane 0 the caller, lanes ``1..H`` the first
    ``H = min(workers - 1, len(helpers()))`` :func:`helpers`; all on the
    caller, in order, where ``H`` is 0); ``submit`` takes the first helper;
    results are always collected in submission order.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if workers > 1:
            tune_allocator_for_threads()

    @property
    def effective_workers(self) -> int:
        """Pool width as seen by the calling thread: 1 inside a pool
        task (the lanes are busy with the tasks that would wait), the
        configured width everywhere else."""
        return 1 if _in_worker() else self.workers

    def submit(self, fn: Callable[..., R], *args: Any) -> "Future[R]":
        """Schedule ``fn(*args)`` on the first helper lane; inline (an
        already-completed future) at effective width 1 or with no
        helpers."""
        if self.effective_workers == 1:
            return done(fn, *args)
        side = helpers()
        return side[0].submit(_guarded, fn, args) if side else done(_guarded, fn, args)

    def _lanes(self, fn: Callable[..., R], tasks: Sequence[tuple]) -> list[R]:
        """``[fn(*t) for t in tasks]``, task ``i`` on lane ``i mod (H+1)``;
        once every lane is done, the first failure in submission order
        raises."""
        side = helpers()[: self.workers - 1]  # never more threads than the width
        lanes = len(side) + 1
        futures: list = [
            side[i % lanes - 1].submit(_guarded, fn, t) if i % lanes else None
            for i, t in enumerate(tasks)
        ]
        for i in range(0, len(tasks), lanes):
            futures[i] = done(_guarded, fn, tasks[i])
        wait(futures)
        return [f.result() for f in futures]

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """``[fn(x) for x in items]`` with a fixed-order result list.

        The list is assembled in submission order regardless of
        completion order, so reductions over it are deterministic.  The
        first exception (in submission order) propagates once every
        item has run.
        """
        if self.effective_workers == 1 or len(items) <= 1:
            return [fn(x) for x in items]
        return self._lanes(fn, [(x,) for x in items])

    def reduce_map(self, fn: Callable[[int], Any], ranks: Sequence[int], out: Any = None) -> Any:
        """``tree_sum(map(fn, ranks), out)``: run a per-rank task whose
        result is a flat FP32 buffer (only read: it may be live state),
        and fold the buffers over the canonical summation tree of
        :func:`repro.comm.collectives.tree_sum`.

        This is the pool-level seam of the bucketed allreduce: the thread
        pool folds the full rank list here; the process backend's
        :class:`repro.exec.transport.SpmdRankPool` overrides it with a
        hierarchical fold (local canonical-subtree partials, one
        shared-memory exchange, identical tree completion) that produces
        the same bits from the same contract.
        """
        from repro.comm.collectives import tree_sum

        return tree_sum(self.map(fn, ranks), out=out)

    def run_sharded(self, fn: Callable[[int, int, int], R], work: int) -> list[R]:
        """Run ``fn(lo, hi, tid)`` over the Alg. 4/5 static partition.

        ``work`` items are split into one contiguous range per effective
        worker by :func:`static_partition`; empty ranges are
        skipped.  Results come back in ``tid`` order.  Because every
        shard owns a disjoint ``[lo, hi)``, writers into per-item output
        rows are race-free and the result is independent of scheduling.
        """
        shards = self.effective_workers
        ranges = [
            (lo, hi, tid)
            for tid, (lo, hi) in enumerate(static_partition(work, shards))
            if hi > lo
        ]
        if shards == 1 or len(ranges) <= 1:
            return [fn(lo, hi, tid) for lo, hi, tid in ranges]
        return self._lanes(fn, ranges)


# -- the process-wide pool ----------------------------------------------------

_global_pool = WorkerPool(1)


def get_pool() -> WorkerPool:
    """The process-wide pool (1 wide until :func:`set_pool_workers`)."""
    return _global_pool


def set_pool_workers(workers: int) -> WorkerPool:
    """Replace the process-wide pool with one ``workers`` wide."""
    global _global_pool
    _global_pool = WorkerPool(workers)
    return _global_pool
