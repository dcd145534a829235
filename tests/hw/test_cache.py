"""Index statistics and the contention model behind Fig. 7/8."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import bounded_zipf
from repro.hw.cache import ContentionModel, IndexStats, index_stats
from repro.kernels.threads import bucket_by_row_ranges

from tests.conftest import row_range_for_thread


class TestIndexStats:
    def test_unique_indices_have_no_conflicts(self):
        s = index_stats(np.arange(100), 1000, threads=8)
        assert s.duplicates == 0
        assert s.conflicts == 0.0
        assert s.max_count == 1

    def test_single_hot_row_fully_conflicts(self):
        s = index_stats(np.zeros(64, dtype=np.int64), 1000, threads=8)
        assert s.unique == 1
        assert s.duplicates == 63
        # count*T/NS = 8 > 1 -> every duplicate is a serialised transfer.
        assert s.conflicts == pytest.approx(63.0)

    def test_uniform_duplicates_barely_conflict(self):
        """The small config's regime: duplicates exist, contention doesn't."""
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 1_000_000, size=102_400)
        s = index_stats(idx, 1_000_000, threads=28)
        assert s.duplicates > 1000  # birthday collisions happen...
        assert s.conflicts < 0.01 * s.duplicates  # ...but are not concurrent

    def test_zipf_conflicts_dominate(self):
        """The MLPerf/terabyte regime: the Zipf head serialises."""
        rng = np.random.default_rng(0)
        idx = bounded_zipf(rng, 2048, 40_000_000)
        s = index_stats(idx, 40_000_000, threads=28)
        assert s.conflicts > 50

    def test_imbalance_of_clustered_indices(self):
        # All updates land in the first row-range -> imbalance = threads.
        idx = np.zeros(100, dtype=np.int64)
        s = index_stats(idx, 1000, threads=4)
        assert s.imbalance == pytest.approx(4.0)

    def test_imbalance_of_uniform_near_one(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 100_000, size=200_000)
        s = index_stats(idx, 100_000, threads=8)
        assert s.imbalance == pytest.approx(1.0, abs=0.05)

    def test_empty_stream(self):
        s = index_stats(np.array([], dtype=np.int64), 100, threads=4)
        assert s.total == 0 and s.imbalance == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            index_stats(np.array([5]), 5, threads=2)

    def test_thread_ranges_are_not_row_range_for_thread_when_threads_do_not_divide_rows(self):
        """M=10, T=4: ``index_stats`` counts row ``r`` for thread
        ``floor(r*T/M)`` (3, 2, 3, 2 rows per thread); Alg. 4's executed
        ranges ``[M*t//T, M*(t+1)//T)`` hold 2, 3, 2, 3.  The recorded
        rank clocks are priced with the former, so neither side may be
        'fixed' to match the other without re-recording them."""
        rows, threads = 10, 4

        def same_thread(a, b, rows=rows):  # both look-ups on one thread: imbalance T, else T/2
            return index_stats(np.array([a, b]), rows, threads=threads).imbalance == threads

        sizes, first = [], 0
        for r in range(1, rows + 1):
            if r == rows or not same_thread(first, r):
                sizes.append(r - first)
                first = r
        assert sizes == [3, 2, 3, 2]
        ranges = [row_range_for_thread(rows, t, threads) for t in range(threads)]
        assert [hi - lo for lo, hi in ranges] == [2, 3, 2, 3]
        # Where they differ: rows 0-2 load one thread here, two threads there.
        idx = np.array([0, 1, 2])
        assert index_stats(idx, rows, threads=threads).imbalance == pytest.approx(4.0)
        counts = bucket_by_row_ranges(idx, rows, threads)
        assert counts.tolist() == [2, 1, 0, 0]
        # When T divides M the two agree row for row.
        for r in range(12):
            owner = next(t for t in range(threads) if same_thread(r, 3 * t, rows=12))
            lo, hi = row_range_for_thread(12, owner, threads)
            assert lo <= r < hi

    def test_duplication_ratio(self):
        s = index_stats(np.array([1, 1, 2, 3]), 10, threads=2)
        assert s.duplicates / s.total == pytest.approx(0.25)

    @given(st.integers(1, 200), st.integers(1, 32), st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, rows, threads, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, rows, size=rng.integers(1, 300))
        s = index_stats(idx, rows, threads=threads)
        assert s.unique + s.duplicates == s.total
        assert 0 <= s.conflicts <= s.duplicates
        assert s.imbalance >= 1.0
        assert 1 <= s.max_count <= s.total


class TestContentionModel:
    def make(self):
        return ContentionModel(line_transfer_ns=300.0, atomic_instr_ns=1.0, rtm_speedup=0.9)

    def test_thrash_scales_with_conflicts_and_lines(self):
        cm = self.make()
        hot = IndexStats(64, 1, 63, 64, 100, conflicts=63.0, imbalance=1.0)
        cold = IndexStats(64, 64, 0, 1, 100, conflicts=0.0, imbalance=1.0)
        assert cm.thrash_time(hot, row_bytes=512) == pytest.approx(
            63 * 8 * 300e-9
        )
        assert cm.thrash_time(cold, row_bytes=512) == 0.0

    def test_atomic_overhead_scales_with_rows(self):
        cm = self.make()
        s = IndexStats(1000, 1000, 0, 1, 10_000, 0.0, 1.0)
        assert cm.atomic_overhead_time(s, 256) == pytest.approx(1000 * 4 * 1e-9)

    def test_racefree_sees_only_imbalance(self):
        cm = self.make()
        s = IndexStats(64, 1, 63, 64, 100, conflicts=63.0, imbalance=5.0)
        assert cm.racefree_imbalance(s) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentionModel(-1, 1, 0.9)
        with pytest.raises(ValueError):
            ContentionModel(1, 1, 1.5)
