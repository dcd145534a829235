"""Process-wide persistent worker pool for real thread parallelism.

The paper extracts concurrency from 28-core sockets with *static* thread
partitions (Alg. 4/5); this module supplies the executing half of that
story for the reproduction.  A :class:`WorkerPool` wraps a persistent
``ThreadPoolExecutor`` -- NumPy kernels release the GIL, so threads give
genuine wall-clock parallelism on the vectorized hot paths -- behind an
API that keeps every result reduction in a **fixed order**:

* :meth:`WorkerPool.map` returns results in submission order, never in
  completion order, so any caller-side fold over the results is
  deterministic;
* :meth:`WorkerPool.run_sharded` hands each worker a contiguous
  ``[lo, hi)`` range from :func:`repro.kernels.threads.static_partition`
  -- the exact Alg. 4/5 ranges -- so workers own disjoint output rows and
  no summation order ever changes.

One process-wide pool (:func:`get_pool`) is shared by the parallel-rank
trainer, the sharded kernels and the prefetching data pipeline.  It
defaults to ``workers=1`` (inline execution, no threads, bit-for-bit the
sequential code path) unless ``REPRO_WORKERS`` is set; configure it
explicitly with :func:`set_pool_workers`.

Nested parallelism is defused rather than deadlocked: tasks running *on*
pool workers see an effective width of 1 (:meth:`WorkerPool.effective_workers`),
so a kernel called from inside a parallel rank step runs its sequential
path instead of re-submitting to the pool it is executing on.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
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
        import ctypes

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


def _in_worker() -> bool:
    return getattr(_worker_ctx, "active", False)


class WorkerPool:
    """A persistent thread pool with deterministic, fixed-order reduction.

    ``workers=1`` executes everything inline on the calling thread -- no
    executor is created, and every code path is byte-for-byte the
    sequential one.  ``workers>1`` runs tasks on a shared
    ``ThreadPoolExecutor``; results are always collected in submission
    order.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        if workers > 1:
            tune_allocator_for_threads()

    # -- lifecycle -----------------------------------------------------------

    def _get_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                # ``workers`` is the *sharding* width (it fixes the static
                # partitions and hence the task granularity); the thread
                # count is capped at the host's cores -- oversubscribing a
                # small box just thrashes the GIL and caches, and results
                # are identical either way (fixed-order reduction).
                threads = min(self.workers, os.cpu_count() or self.workers)
                self._executor = ThreadPoolExecutor(
                    max_workers=threads, thread_name_prefix="repro-exec"
                )
            return self._executor

    def shutdown(self) -> None:
        """Stop the worker threads (the pool may be used again; a new
        executor spins up lazily)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    @property
    def effective_workers(self) -> int:
        """Pool width as seen by the calling thread: 1 inside a pool
        worker (nested submission would deadlock a saturated pool), the
        configured width everywhere else."""
        return 1 if _in_worker() else self.workers

    # -- execution -----------------------------------------------------------

    @staticmethod
    def _entry(fn: Callable[..., R], args: tuple) -> R:
        _worker_ctx.active = True
        try:
            return fn(*args)
        finally:
            _worker_ctx.active = False

    def submit(self, fn: Callable[..., R], *args: Any) -> "Future[R]":
        """Schedule ``fn(*args)``; inline (already-completed future) when
        the effective width is 1."""
        if self.effective_workers == 1:
            future: Future[R] = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - mirror executor semantics
                future.set_exception(exc)
            return future
        return self._get_executor().submit(self._entry, fn, args)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """``[fn(x) for x in items]`` with a fixed-order result list.

        All items are submitted before any result is awaited; the list
        is assembled in submission order regardless of completion order,
        so reductions over it are deterministic.  The first exception
        (in submission order) propagates.
        """
        if self.effective_workers == 1 or len(items) <= 1:
            return [fn(x) for x in items]
        executor = self._get_executor()
        futures = [executor.submit(self._entry, fn, (x,)) for x in items]
        return [f.result() for f in futures]

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
        executor = self._get_executor()
        futures = [executor.submit(self._entry, fn, rng) for rng in ranges]
        return [f.result() for f in futures]


# -- the process-wide pool ----------------------------------------------------

_global_lock = threading.Lock()
_global_pool: WorkerPool | None = None


def _default_workers() -> int:
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
    return 1


def get_pool() -> WorkerPool:
    """The process-wide pool (created on first use; ``REPRO_WORKERS`` or 1)."""
    global _global_pool
    with _global_lock:
        if _global_pool is None:
            _global_pool = WorkerPool(_default_workers())
        return _global_pool


def set_pool_workers(workers: int) -> WorkerPool:
    """Replace the process-wide pool with one of ``workers`` threads."""
    global _global_pool
    pool = WorkerPool(workers)
    with _global_lock:
        old, _global_pool = _global_pool, pool
    if old is not None:
        old.shutdown()
    return pool
