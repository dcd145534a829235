"""Frequency counters: exact, sketched, and the feeding paths."""

import numpy as np
import pytest

from repro.tiering.freqstats import (
    EXACT_ROWS_THRESHOLD,
    ExactCounter,
    FreqStats,
    SketchCounter,
    TableFreq,
)
from tests.conftest import random_batch, tiny_config


class TestExactCounter:
    def test_counts_and_total(self):
        c = ExactCounter(10)
        c.record(np.array([1, 1, 3, 9]))
        c.record(np.array([1]))
        assert c.total == 5
        np.testing.assert_array_equal(c.estimate(np.array([1, 3, 0])), [3, 1, 0])

    def test_topk_orders_by_count_then_row(self):
        c = ExactCounter(6)
        c.record(np.array([5, 5, 2, 2, 4]))
        rows, counts = c.topk(3)
        # ties (rows 2 and 5, both count 2) break by ascending row id
        np.testing.assert_array_equal(rows, [2, 5, 4])
        np.testing.assert_array_equal(counts, [2, 2, 1])

    def test_out_of_range_raises(self):
        c = ExactCounter(4)
        with pytest.raises(IndexError):
            c.record(np.array([4]))
        with pytest.raises(IndexError):
            c.record(np.array([-1]))

    def test_reset(self):
        c = ExactCounter(4)
        c.record(np.array([0, 1]))
        c.reset()
        assert c.total == 0 and c.counts.sum() == 0


class TestSketchCounter:
    def test_never_undercounts(self):
        g = np.random.default_rng(3)
        c = SketchCounter(1 << 22, k=64, width=256)
        idx = g.integers(0, 1 << 22, size=2000, dtype=np.int64)
        c.record(idx)
        uniq, true_counts = np.unique(idx, return_counts=True)
        est = c.estimate(uniq)
        assert np.all(est >= true_counts)

    def test_head_finds_heavy_hitters(self):
        g = np.random.default_rng(7)
        c = SketchCounter(1 << 21, k=8)
        noise = g.integers(0, 1 << 21, size=500, dtype=np.int64)
        heavy = np.full(400, 12345, dtype=np.int64)
        c.record(np.concatenate([noise, heavy]))
        rows, _counts = c.topk(1)
        assert rows[0] == 12345

    def test_reset(self):
        c = SketchCounter(1 << 21)
        c.record(np.array([1, 2, 3]))
        c.reset()
        assert c.total == 0 and not c._head


class TestTableFreq:
    def test_dispatch_by_size(self):
        assert isinstance(TableFreq(1000), ExactCounter)
        assert isinstance(TableFreq(EXACT_ROWS_THRESHOLD + 1), SketchCounter)


class TestFreqStats:
    def test_record_batch_and_snapshot(self):
        cfg = tiny_config()
        stats = FreqStats(cfg.table_rows)
        for b in range(3):
            stats.record_batch(random_batch(cfg, 16, seed=b))
        snap = stats.snapshot()
        assert all(t > 0 for t in snap.totals)
        hot, coverage = snap.hot_set(0, budget_rows=8)
        assert hot.size == 8
        assert np.all(np.diff(hot) > 0)  # sorted ascending, distinct
        assert 0.0 < coverage <= 1.0

    def test_hot_set_empty_without_records(self):
        stats = FreqStats((50, 50))
        hot, coverage = stats.snapshot().hot_set(0, budget_rows=8)
        # nothing recorded: topk still returns rows, but coverage is 0
        assert coverage == 0.0

    def test_reset(self):
        stats = FreqStats((50,))
        stats.record(0, np.array([1, 2, 3]))
        stats.reset()
        assert stats.snapshot().totals == (0,)
