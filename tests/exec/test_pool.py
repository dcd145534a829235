"""WorkerPool: fixed-order reduction, sharding, nesting, lanes, global config."""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.exec import pool as pool_mod
from repro.exec.pool import WorkerPool, get_pool, helpers, pinned, set_pool_workers
from repro.kernels.threads import static_partition

REPO = Path(__file__).resolve().parents[2]


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
        assert calls == [threading.current_thread()] * 3

    def test_map_results_in_submission_order(self):
        # Work items finish out of order (later items sleep less),
        # but results must come back in submission order.
        def fn(x):
            time.sleep(0.02 * (4 - x))
            return x

        assert WorkerPool(4).map(fn, [0, 1, 2, 3]) == [0, 1, 2, 3]

    def test_map_propagates_exceptions(self):
        def fn(x):
            if x == 1:
                raise RuntimeError("boom")
            return x

        with pytest.raises(RuntimeError, match="boom"):
            WorkerPool(2).map(fn, [0, 1, 2])

    def test_a_failure_raises_only_once_every_task_is_done(self):
        """Item 0 fails at once; item 1 (on a helper, or after it on the
        caller) is still writing when it does, and must be done before
        the caller sees the error."""
        finished = threading.Event()

        def fn(x):
            if x == 0:
                raise RuntimeError("first")
            time.sleep(0.2)
            finished.set()

        with pytest.raises(RuntimeError, match="first"):
            WorkerPool(2).map(fn, [0, 1])
        assert finished.is_set()

    def test_an_interrupt_on_the_caller_waits_for_every_task_too(self):
        """The same, with a ``BaseException`` from the caller's own shard."""

        class Interrupt(BaseException):
            pass

        finished = threading.Event()

        def fn(x):
            if x == 0:
                raise Interrupt
            time.sleep(0.2)
            finished.set()

        with pytest.raises(Interrupt):
            WorkerPool(2).map(fn, [0, 1])
        assert finished.is_set()

    def test_the_first_failure_in_submission_order_wins(self):
        def fn(x):
            if x:
                raise RuntimeError(f"item {x}")
            time.sleep(0.1)

        with pytest.raises(RuntimeError, match="item 1"):
            WorkerPool(4).map(fn, [0, 1, 2, 3])

    def test_run_sharded_covers_static_partition(self):
        out = np.zeros(10, dtype=np.int64)

        def shard(lo, hi, tid):
            out[lo:hi] = tid
            return (lo, hi, tid)

        got = WorkerPool(3).run_sharded(shard, 10)
        assert got == [(lo, hi, tid) for tid, (lo, hi) in enumerate(static_partition(10, 3))]
        # Every item owned exactly once, in contiguous tid runs.
        assert (np.diff(out) >= 0).all()

    def test_run_sharded_skips_empty_ranges(self):
        got = WorkerPool(8).run_sharded(lambda lo, hi, tid: (lo, hi), 3)
        assert got == [(lo, hi) for lo, hi in static_partition(3, 8) if hi > lo]

    def test_nested_submission_degrades_to_inline(self):
        """A task running on the pool sees effective width 1, so kernels
        called inside parallel rank steps never re-submit (deadlock)."""
        pool = WorkerPool(2)

        def inner():
            return pool.effective_workers

        def outer(_):
            return pool.map(lambda x: inner(), [0])[0]

        assert pool.effective_workers == 2
        assert pool.map(outer, [0, 1]) == [1, 1]
        assert pool.effective_workers == 2  # guard resets after tasks

    def test_submit_inline_future(self):
        pool = WorkerPool(1)
        future = pool.submit(lambda: 42)
        assert future.result() == 42
        failing = pool.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            failing.result()


def lanes_of(pool: WorkerPool, shards: int) -> list[threading.Thread]:
    """The thread each of ``shards`` static shards ran on, in tid order."""
    return pool.run_sharded(lambda lo, hi, tid: threading.current_thread(), shards)


class TestLanes:
    def test_shard_0_runs_here_and_the_rest_on_helpers(self):
        ran = lanes_of(WorkerPool(4), 4)
        here = threading.current_thread()
        assert ran[0] is here
        lanes = min(3, len(helpers())) + 1
        for tid, thread in enumerate(ran):
            assert (thread is here) == (tid % lanes == 0)
            assert thread is here or thread.name.startswith("repro-helper")

    def test_with_no_helpers_every_shard_runs_here(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "helpers", lambda: ())
        assert lanes_of(WorkerPool(4), 4) == [threading.current_thread()] * 4
        assert WorkerPool(3).submit(threading.current_thread).result() is threading.current_thread()

    def test_the_callers_own_shard_sees_width_1(self):
        pool = WorkerPool(3)
        assert pool.run_sharded(lambda lo, hi, tid: pool.effective_workers, 3) == [1, 1, 1]
        assert pool.effective_workers == 3

    def test_a_wide_submit_runs_on_a_helper(self):
        ran = WorkerPool(2).submit(threading.current_thread).result(timeout=5)
        assert (ran is threading.current_thread()) == (not helpers())

    def test_a_pool_uses_at_most_width_minus_1_helpers(self, monkeypatch):
        side = tuple(ThreadPoolExecutor(1, f"repro-helper-fake{i}") for i in range(4))
        monkeypatch.setattr(pool_mod, "helpers", lambda: side)
        try:
            pool = WorkerPool(2)
            ran = pool.map(lambda _: threading.current_thread(), range(6))
            assert {t.name for t in ran[1::2]} == {"repro-helper-fake0_0"}
            assert ran[::2] == [threading.current_thread()] * 3
            assert [pool.submit(threading.current_thread).result(timeout=5) for _ in range(3)] == [ran[1]] * 3
        finally:
            for executor in side:
                executor.shutdown()

    def test_a_helper_runs_free_until_pinned(self):
        allowed = os.sched_getaffinity(0)
        cpu = max(allowed)
        side = ThreadPoolExecutor(1, "repro-helper-probe", pool_mod._own.__setattr__, ("cpu", cpu))
        try:
            assert side.submit(os.sched_getaffinity, 0).result(timeout=5) == allowed
            assert side.submit(pinned, lambda: os.sched_getaffinity(0)).result(timeout=5) == {cpu}
        finally:
            side.shutdown()

    def test_one_helper_per_allowed_cpu_but_this_ones(self):
        assert len(helpers()) == len(os.sched_getaffinity(0)) - 1


_WIDTH_1_CHILD = """
import json, threading
from repro.train import make_trainer
from tests.exec.test_beside import criteo_spec
trainer = make_trainer(criteo_spec())
trainer.fit()
trainer.close()
print(json.dumps(sorted(t.name for t in threading.enumerate() if t.name.startswith("repro-helper"))))
"""


def test_a_width_1_run_starts_at_most_one_helper():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])}
    child = subprocess.run(
        [sys.executable, "-c", _WIDTH_1_CHILD],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    started = json.loads(child.stdout.splitlines()[-1])
    assert len(started) <= 1, started


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
            pool_mod._global_pool = before
