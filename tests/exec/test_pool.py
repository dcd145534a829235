"""WorkerPool: fixed-order reduction, sharding, nesting, global config."""

import threading

import numpy as np
import pytest

from repro.exec.pool import WorkerPool, get_pool, set_pool_workers
from repro.kernels.threads import static_partition


class TestWorkerPool:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_inline_when_one_worker(self):
        pool = WorkerPool(1)
        calls = []

        def fn(x):
            calls.append(threading.current_thread())
            return x * 2

        assert pool.map(fn, [1, 2, 3]) == [2, 4, 6]
        # Inline mode never leaves the calling thread.
        assert all(t is threading.main_thread() for t in calls)
        assert pool._executor is None

    def test_map_results_in_submission_order(self):
        pool = WorkerPool(4)
        try:
            # Work items finish out of order (later items sleep less),
            # but results must come back in submission order.
            import time

            def fn(x):
                time.sleep(0.02 * (4 - x))
                return x

            assert pool.map(fn, [0, 1, 2, 3]) == [0, 1, 2, 3]
        finally:
            pool.shutdown()

    def test_map_propagates_exceptions(self):
        pool = WorkerPool(2)
        try:

            def fn(x):
                if x == 1:
                    raise RuntimeError("boom")
                return x

            with pytest.raises(RuntimeError, match="boom"):
                pool.map(fn, [0, 1, 2])
        finally:
            pool.shutdown()

    def test_run_sharded_covers_static_partition(self):
        pool = WorkerPool(3)
        try:
            out = np.zeros(10, dtype=np.int64)

            def shard(lo, hi, tid):
                out[lo:hi] = tid
                return (lo, hi, tid)

            got = pool.run_sharded(shard, 10)
            want = [
                (lo, hi, tid)
                for tid, (lo, hi) in enumerate(static_partition(10, 3))
            ]
            assert got == want
            # Every item owned exactly once, in contiguous tid runs.
            assert (np.diff(out) >= 0).all()
        finally:
            pool.shutdown()

    def test_run_sharded_skips_empty_ranges(self):
        pool = WorkerPool(8)
        try:
            got = pool.run_sharded(lambda lo, hi, tid: (lo, hi), 3)
            assert got == [(lo, hi) for lo, hi in static_partition(3, 8) if hi > lo]
        finally:
            pool.shutdown()

    def test_nested_submission_degrades_to_inline(self):
        """A task running on the pool sees effective width 1, so kernels
        called inside parallel rank steps never re-submit (deadlock)."""
        pool = WorkerPool(2)
        try:

            def inner():
                return pool.effective_workers

            def outer(_):
                return pool.map(lambda x: inner(), [0])[0]

            assert pool.effective_workers == 2
            assert pool.map(outer, [0, 1]) == [1, 1]
            assert pool.effective_workers == 2  # guard resets after tasks
        finally:
            pool.shutdown()

    def test_submit_inline_future(self):
        pool = WorkerPool(1)
        future = pool.submit(lambda: 42)
        assert future.result() == 42
        failing = pool.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            failing.result()


class TestGlobalPool:
    def test_default_is_sequential(self):
        assert get_pool().workers >= 1

    def test_set_pool_workers_replaces(self):
        before = get_pool()
        try:
            pool = set_pool_workers(2)
            assert get_pool() is pool
            assert pool.workers == 2
        finally:
            # Restore whatever the session had (tests must not leak width).
            import repro.exec.pool as mod

            with mod._global_lock:
                mod._global_pool = before
