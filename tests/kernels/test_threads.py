"""Static thread partitioning (Alg. 4/5 work division)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.threads import row_range_for_thread, static_partition


class TestStaticPartition:
    @given(st.integers(0, 1000), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_covers_exactly_once(self, work, threads):
        ranges = static_partition(work, threads)
        assert len(ranges) == threads
        assert ranges[0][0] == 0
        assert ranges[-1][1] == work
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0  # contiguous, no gaps or overlaps

    @given(st.integers(0, 1000), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_balanced_within_one(self, work, threads):
        sizes = [hi - lo for lo, hi in static_partition(work, threads)]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            static_partition(-1, 4)
        with pytest.raises(ValueError):
            static_partition(4, 0)

    def test_no_work_yields_all_empty_ranges(self):
        assert static_partition(0, 5) == [(0, 0)] * 5

    def test_fewer_items_than_threads(self):
        # 3 items over 8 threads: each item owned exactly once, the
        # other ranges empty -- what run_sharded relies on to skip them.
        ranges = static_partition(3, 8)
        sizes = [hi - lo for lo, hi in ranges]
        assert sum(sizes) == 3
        assert max(sizes) == 1
        assert sorted(sizes) == [0] * 5 + [1] * 3

    def test_single_thread_owns_everything(self):
        assert static_partition(17, 1) == [(0, 17)]


class TestRowRange:
    def test_matches_partition(self):
        for rows, threads in [(100, 7), (3, 28), (29, 4)]:
            ranges = static_partition(rows, threads)
            for tid in range(threads):
                assert row_range_for_thread(rows, tid, threads) == ranges[tid]

    def test_tid_validated(self):
        with pytest.raises(ValueError):
            row_range_for_thread(10, 5, 5)


def partition_balance(counts_per_thread: np.ndarray) -> float:
    """Max/mean load ratio of a partition (1.0 = perfectly balanced)."""
    counts = np.asarray(counts_per_thread, dtype=np.float64)
    if counts.size == 0 or counts.mean() == 0:
        return 1.0
    return float(counts.max() / counts.mean())


class TestPartitionBalance:
    def test_uniform_is_one(self):
        assert partition_balance(np.array([5, 5, 5])) == 1.0

    def test_skewed(self):
        assert partition_balance(np.array([9, 0, 0])) == pytest.approx(3.0)

    def test_empty_and_zero(self):
        assert partition_balance(np.array([])) == 1.0
        assert partition_balance(np.zeros(4)) == 1.0

    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=64),
        st.integers(0, 999),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, counts, _seed):
        """1 <= balance <= T whenever any work exists (max <= total = T*mean)."""
        arr = np.array(counts, dtype=np.int64)
        ratio = partition_balance(arr)
        assert ratio >= 1.0
        assert ratio <= len(counts) + 1e-9

    def test_static_partition_balance_is_tight(self):
        """Uniform items under the closed-form ranges stay within one
        item of perfect balance, so the ratio tends to 1 as work grows."""
        for work, threads in [(1000, 7), (28, 28), (997, 16)]:
            sizes = np.array([hi - lo for lo, hi in static_partition(work, threads)])
            assert partition_balance(sizes) <= (sizes.mean() + 1) / sizes.mean()


class TestBucketByRowRanges:
    def test_matches_mask_scan_counts(self, rng):
        from repro.kernels.threads import row_range_for_thread
        from repro.kernels.threads import bucket_by_row_ranges

        rows, threads = 101, 7
        indices = rng.integers(0, rows, size=500, dtype=np.int64)
        counts = bucket_by_row_ranges(indices, rows, threads)
        want = []
        for tid in range(threads):
            lo, hi = row_range_for_thread(rows, tid, threads)
            want.append(int(((indices >= lo) & (indices < hi)).sum()))
        assert counts.tolist() == want
        assert counts.sum() == 500
