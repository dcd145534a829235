"""LookAhead and its two callers, PrefetchLoader / PrefetchMap:
bitwise-deterministic lookahead."""

import numpy as np
import pytest

from repro.core.batch import Batch
from repro.data.synthetic import RandomRecDataset
from repro.exec.pool import WorkerPool
from repro.exec.prefetch import LookAhead, PrefetchLoader, PrefetchMap

from tests.conftest import pooled, tiny_config


def batches_equal(a: Batch, b: Batch) -> bool:
    if not np.array_equal(a.dense, b.dense) or not np.array_equal(a.labels, b.labels):
        return False
    for ia, ib in zip(a.indices, b.indices):
        if not np.array_equal(ia, ib):
            return False
    for oa, ob in zip(a.offsets, b.offsets):
        if not np.array_equal(oa, ob):
            return False
    return True


def pending_indices(ahead: LookAhead) -> list[int]:
    """Positions currently scheduled ahead."""
    return sorted(ahead._pending)


class TestLookAhead:
    def test_schedules_the_window_below_stop_and_recentres_on_a_miss(self):
        pool = WorkerPool(2)
        try:
            ahead = LookAhead(lambda k: k * k, depth=3, pool=pool, stop=6)
            assert ahead(0) == 0 and pending_indices(ahead) == [1, 2, 3]
            assert ahead(1) == 1 and pending_indices(ahead) == [2, 3, 4]
            assert ahead(5) == 25 and pending_indices(ahead) == []  # a miss: window dropped
            assert ahead(2) == 4 and pending_indices(ahead) == [3, 4, 5]
        finally:
            pool.shutdown()

    def test_a_hit_drops_the_positions_skipped_over(self):
        pool = WorkerPool(2)
        try:
            ahead = LookAhead(lambda k: k * k, depth=3, pool=pool)
            assert ahead(0) == 0 and pending_indices(ahead) == [1, 2, 3]
            # A skip forward onto a scheduled position: 1 and 2 will never
            # be asked for, so they must not stay (each holds a result).
            assert ahead(3) == 9 and pending_indices(ahead) == [4, 5, 6]
        finally:
            pool.shutdown()

    def test_a_one_wide_pool_schedules_nothing(self):
        ahead = LookAhead(lambda k: -k, depth=2, pool=WorkerPool(1))
        assert [ahead(k) for k in (0, 1, 7)] == [0, -1, -7] and pending_indices(ahead) == []

    def test_depth_is_validated(self):
        with pytest.raises(ValueError, match="depth"):
            LookAhead(abs, depth=0)


class TestPrefetchLoader:
    def test_sequential_stream_matches_direct_calls(self):
        cfg = tiny_config()
        dataset = RandomRecDataset(cfg, seed=7)
        pool = WorkerPool(2)
        try:
            loader = PrefetchLoader(dataset, batch_size=16, pool=pool)
            for step in range(6):
                got = loader.batch(step)
                want = dataset.batch(16, step)
                assert batches_equal(got, want)
        finally:
            pool.shutdown()

    def test_primes_lookahead_window(self):
        dataset = RandomRecDataset(tiny_config(), seed=0)
        pool = WorkerPool(2)
        try:
            loader = PrefetchLoader(dataset, batch_size=8, pool=pool, depth=2)
            loader.batch(0)
            assert pending_indices(loader._ahead) == [1, 2]
            loader.batch(1)
            assert pending_indices(loader._ahead) == [2, 3]
        finally:
            pool.shutdown()

    def test_resume_jump_discards_stale_window(self):
        dataset = RandomRecDataset(tiny_config(), seed=0)
        pool = WorkerPool(2)
        try:
            loader = PrefetchLoader(dataset, batch_size=8, pool=pool)
            loader.batch(0)
            # Jump (checkpoint resume): miss falls back to a direct call
            # and the window re-centres past the new cursor.
            got = loader.batch(50)
            assert batches_equal(got, dataset.batch(8, 50))
            assert pending_indices(loader._ahead) == [51]
        finally:
            pool.shutdown()

    def test_one_wide_pool_is_synchronous(self):
        dataset = RandomRecDataset(tiny_config(), seed=0)
        loader = PrefetchLoader(dataset, batch_size=8, pool=WorkerPool(1))
        assert batches_equal(loader.batch(3), dataset.batch(8, 3))
        assert pending_indices(loader._ahead) == []

    def test_batch_size_and_depth_validated(self):
        dataset = RandomRecDataset(tiny_config(), seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            PrefetchLoader(dataset, batch_size=0)
        with pytest.raises(ValueError, match="depth"):
            PrefetchLoader(dataset, batch_size=8, depth=0)


class TestPrefetchMap:
    def test_in_order_consumption_matches_fn(self):
        items = list(range(10))
        calls = []

        def fn(x):
            calls.append(x)
            return x * x

        pool = WorkerPool(2)
        try:
            wrapped = PrefetchMap(fn, items, pool=pool, depth=2)
            assert [wrapped(x) for x in items] == [x * x for x in items]
        finally:
            pool.shutdown()

    def test_unknown_item_computed_directly(self):
        pool = WorkerPool(2)
        try:
            wrapped = PrefetchMap(lambda x: x + 1, [1, 2, 3], pool=pool)
            assert wrapped(99) == 100
        finally:
            pool.shutdown()

    def test_serve_driver_prefetches_identically(self):
        """run_serving under a wide pool reproduces the sequential sweep
        row bitwise (index synthesis is pure; only timing of synthesis
        moves)."""
        from repro.serve.driver import ServeParams, run_serving

        params = ServeParams(config="small", requests=40, mean_qps=500.0, replicas=2)
        _, sequential = run_serving(params)
        with pooled(4):
            _, parallel = run_serving(params)
        assert sequential == parallel
