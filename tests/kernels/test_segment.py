"""The sparse row operators through the dispatch, against ``np.add.at``.

Scatter, pooled forward and duplicate aggregation run once per kernel
tier (the NumPy tier *is* the ``np.add.at`` spelling of
:mod:`repro.kernels.reference`, a bounded block at a time; the native
tier is an input-order C loop) and are held, bit for bit, to the
reference or to literal ``np.add.at``: duplicate-heavy and long runs,
±0 / NaN / inf specials, a memmap destination, empty bags.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import SparseGrad
from repro.kernels import dispatch, reference
from repro.kernels import rows as row_kernels
from repro.kernels.native import _plan_segments as plan_segments
from repro.kernels.workspace import Workspace
from tests.conftest import TIERED, bucket_by_row_ranges

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf: wanted inputs


def ragged_offsets(rng, n, max_len=6, allow_empty=True):
    lengths = rng.integers(0 if allow_empty else 1, max_len + 1, size=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def segment_sum(rows, offsets):
    """The dispatched pooled forward over ``rows`` themselves (look-up
    ``s`` reads row ``s``)."""
    return dispatch.pool_rows(rows, np.arange(rows.shape[0]), offsets, Workspace())


def aggregate_duplicates(indices, values):
    return SparseGrad(indices, values).aggregated()


class TestPlanSegments:
    """The composite-key sort of the native Split-BF16 update."""

    def test_stable_order_and_runs(self):
        idx = np.array([3, 1, 3, 0, 1, 3], dtype=np.int64)
        order, uniq, starts, lengths = plan_segments(idx)
        np.testing.assert_array_equal(uniq, [0, 1, 3])
        np.testing.assert_array_equal(lengths, [1, 2, 3])
        np.testing.assert_array_equal(starts, [0, 1, 3])
        # Stability: duplicates keep their original relative order.
        np.testing.assert_array_equal(order, [3, 1, 4, 0, 2, 5])

    def test_empty(self):
        order, uniq, _, _ = plan_segments(np.empty(0, dtype=np.int64))
        assert order.shape == (0,)
        assert uniq.size == 0

    def test_rows_beyond_int32_still_sort(self):
        idx = np.array([2**40, 5, 2**40, 5], dtype=np.int64)
        _, uniq, _, lengths = plan_segments(idx)
        np.testing.assert_array_equal(uniq, [5, 2**40])
        np.testing.assert_array_equal(lengths, [2, 2])

    @staticmethod
    def assert_plan_is_stable_argsort(idx):
        idx = np.asarray(idx, dtype=np.int64)
        plan = plan_segments(idx)
        order = np.argsort(idx, kind="stable")
        uniq, starts, lengths = np.unique(
            idx[order], return_index=True, return_counts=True
        )
        for got, want in zip(plan, (order, uniq, starts, lengths)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64

    @given(
        idx=st.lists(st.integers(0, 40), min_size=1, max_size=300),
        scale=st.sampled_from([1, 1000, 2**31, 2**45]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_stable_argsort(self, idx, scale):
        self.assert_plan_is_stable_argsort(np.array(idx, dtype=np.int64) * scale)

    @pytest.mark.parametrize("nnz", [1, 2, 3, 1000])
    def test_ids_without_room_for_position_bits_take_the_argsort(self, rng, nnz):
        # The composite key needs ids in [0, 2**(62 - bits)); shifting
        # anything else would overflow or sort negatives last.
        bits = max(1, (nnz - 1).bit_length())
        limit = 1 << (62 - bits)
        small = rng.integers(0, 5, size=nnz, dtype=np.int64)
        self.assert_plan_is_stable_argsort(small + (limit - 5))  # largest packed ids
        self.assert_plan_is_stable_argsort(small + (limit - 4))  # one id past them
        self.assert_plan_is_stable_argsort(small - 2)  # negative ids
        self.assert_plan_is_stable_argsort(
            np.where(small > 2, np.iinfo(np.int64).max, np.iinfo(np.int64).min)
        )


@pytest.mark.usefixtures("kernel_tier")
class TestSegmentSumBitIdentity:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 17])
    def test_ragged_matches_reference_bitwise(self, rng, dim):
        for _ in range(5):
            offsets = ragged_offsets(rng, int(rng.integers(1, 40)))
            rows = rng.standard_normal((int(offsets[-1]), dim)).astype(np.float32)
            want = reference.segment_sum(rows, offsets)
            got = segment_sum(rows, offsets)
            assert np.array_equal(got, want)

    def test_all_bags_empty(self, rng):
        offsets = np.zeros(6, dtype=np.int64)
        out = segment_sum(np.zeros((0, 4), np.float32), offsets)
        assert out.shape == (5, 4)
        assert not out.any()

    def test_equal_length_bags(self, rng):
        rows = rng.standard_normal((12, 4)).astype(np.float32)
        offsets = np.arange(0, 13, 3)
        want = reference.segment_sum(rows, offsets)
        assert np.array_equal(segment_sum(rows, offsets), want)

    @given(n=st.integers(1, 30), dim=st.integers(1, 9), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None, **TIERED)
    def test_property_bitwise(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        offsets = ragged_offsets(rng, n)
        rows = rng.standard_normal((int(offsets[-1]), dim)).astype(np.float32)
        assert np.array_equal(segment_sum(rows, offsets), reference.segment_sum(rows, offsets))


@pytest.mark.usefixtures("kernel_tier")
class TestAggregateBitIdentity:
    def test_duplicate_heavy(self, rng):
        idx = rng.integers(0, 7, size=500, dtype=np.int64)  # ~70 dups per row
        vals = rng.standard_normal((500, 5)).astype(np.float32)
        uw, aw = reference.aggregate_duplicates(idx, vals)
        ug, ag = aggregate_duplicates(idx, vals)
        np.testing.assert_array_equal(ug, uw)
        assert np.array_equal(ag, aw)

    def test_empty(self):
        uniq, agg = aggregate_duplicates(np.empty(0, np.int64), np.empty((0, 3), np.float32))
        assert uniq.size == 0
        assert agg.shape == (0, 3)

    @given(rows=st.integers(1, 12), nnz=st.integers(0, 200), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None, **TIERED)
    def test_property_bitwise(self, rows, nnz, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
        vals = rng.standard_normal((nnz, 3)).astype(np.float32)
        uw, aw = reference.aggregate_duplicates(idx, vals)
        ug, ag = aggregate_duplicates(idx, vals)
        np.testing.assert_array_equal(ug, uw)
        assert np.array_equal(ag, aw)


@pytest.mark.usefixtures("kernel_tier")
class TestScatterAddBitIdentity:
    @pytest.mark.parametrize(
        "rows,nnz,dim", [(5, 300, 4), (64, 64, 2), (1, 50, 8), (40, 0, 3), (6, 100, 1)]
    )
    def test_matches_add_at_bitwise(self, rng, rows, nnz, dim):
        idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
        deltas = rng.standard_normal((nnz, dim)).astype(np.float32)
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        want = w0.copy()
        reference.scatter_add(want, idx, deltas)
        got = w0.copy()
        dispatch.scatter_add_exact(got, idx, deltas)
        assert np.array_equal(got, want)

    def test_untouched_rows_untouched(self, rng):
        w0 = rng.standard_normal((10, 3)).astype(np.float32)
        w = w0.copy()
        dispatch.scatter_add_exact(w, np.array([2, 2]), np.ones((2, 3), np.float32))
        mask = np.ones(10, bool)
        mask[2] = False
        assert np.array_equal(w[mask], w0[mask])

    def test_bag_variant_matches_expanded(self, rng):
        rows, n, dim = 9, 15, 4
        offsets = ragged_offsets(rng, n)
        nnz = int(offsets[-1])
        idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
        bag_ids = np.repeat(np.arange(n), np.diff(offsets))
        bag_grads = rng.standard_normal((n, dim)).astype(np.float32)
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        want = w0.copy()
        reference.scatter_add(want, idx, bag_grads[bag_ids])
        got = w0.copy()
        dispatch.scatter_add_exact(got, idx, bag_grads, offsets=offsets)
        assert np.array_equal(got, want)

    @given(
        rows=st.integers(1, 30),
        nnz=st.integers(0, 250),
        dim=st.integers(2, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None, **TIERED)
    def test_property_bitwise(self, rows, nnz, dim, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
        deltas = rng.standard_normal((nnz, dim)).astype(np.float32)
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        want = w0.copy()
        reference.scatter_add(want, idx, deltas)
        got = w0.copy()
        dispatch.scatter_add_exact(got, idx, deltas)
        assert np.array_equal(got, want)

#: Run lengths on both sides of every power of two up to 128, and runs
#: longer than a thousand.
RUN_LENGTHS = sorted(
    {1, 2, 3} | {2**k + d for k in range(2, 8) for d in (-1, 0, 1)}
)
LONG_RUNS = (1025, 1536, 2047)
#: The NaN this machine's adder produces.  Which payload survives
#: ``NaN + NaN`` is the hardware's choice of operand, not a property of
#: the summation order, so the inputs carry the one payload that
#: ``inf - inf`` inside a sum yields as well.
with np.errstate(invalid="ignore"):
    MACHINE_NAN = np.float32(np.inf) - np.float32(np.inf)
#: Values whose sums expose a changed association, a dropped sign of
#: zero, or a flushed denormal.
SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, MACHINE_NAN, 1e-45, -1e-40, 1.1754944e-38,
     3.4028235e38, -3.4028235e38, 1.0, -1.0, 16777216.0, 1e-8],
    dtype=np.float32,
)


def special_values(rng, shape, special_share):
    """Normal draws over many magnitudes with SPECIALS mixed in."""
    vals = (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)).astype(
        np.float32
    )
    mask = rng.random(shape) < special_share
    vals[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return vals


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def shuffled_runs(rng, runs, long_run):
    """Index vector whose duplicate runs have exactly these lengths,
    with the occurrences of every row scattered over the vector."""
    lengths = np.array(list(runs) + ([long_run] if long_run else []))
    table_rows = int(lengths.shape[0]) + 3  # some rows stay untouched
    ids = rng.permutation(table_rows)[: lengths.shape[0]]
    return rng.permutation(np.repeat(ids, lengths)).astype(np.int64), table_rows


run_case = given(
    runs=st.lists(st.sampled_from(RUN_LENGTHS), min_size=1, max_size=12),
    long_run=st.sampled_from((0,) + LONG_RUNS),
    dim=st.sampled_from([1, 2, 64]),
    special_share=st.sampled_from([0.0, 0.05, 0.9]),
    seed=st.integers(0, 10_000),
)


@pytest.mark.usefixtures("kernel_tier")
class TestLongRunsAgainstAddAt:
    """Every operator against literal ``np.add.at``, bit for bit, on
    runs from one look-up to two thousand, with specials.

    Mutation-checked by hand: adding each block's look-ups in reverse
    order (NumPy tier) or walking the look-ups backwards in the C
    scatter (native tier) fails the scatter test.
    """

    @run_case
    @settings(max_examples=120, deadline=None, **TIERED)
    def test_scatter_starts_from_the_weight_row(
        self, runs, long_run, dim, special_share, seed
    ):
        rng = np.random.default_rng(seed)
        idx, table_rows = shuffled_runs(rng, runs, long_run)
        deltas = special_values(rng, (idx.shape[0], dim), special_share)
        w0 = special_values(rng, (table_rows, dim), special_share)
        want = w0.copy()
        np.add.at(want, idx, deltas)
        got = w0.copy()
        dispatch.scatter_add_exact(got, idx, deltas)
        np.testing.assert_array_equal(bits(got), bits(want))

    @run_case
    @settings(max_examples=60, deadline=None, **TIERED)
    def test_bag_scatter_into_a_memmap(self, runs, long_run, dim, special_share, seed):
        rng = np.random.default_rng(seed)
        idx, table_rows = shuffled_runs(rng, runs, long_run)
        n_bags = 7
        bag_ids = np.sort(rng.integers(0, n_bags, size=idx.shape[0]))
        bag_grads = special_values(rng, (n_bags, dim), special_share)
        w0 = special_values(rng, (table_rows, dim), special_share)
        want = w0.copy()
        np.add.at(want, idx, bag_grads[bag_ids])
        with tempfile.TemporaryDirectory() as tmp:
            got = np.memmap(
                Path(tmp) / "w.bin", dtype=np.float32, mode="w+", shape=w0.shape
            )
            got[...] = w0
            offsets = np.searchsorted(bag_ids, np.arange(n_bags + 1))
            dispatch.scatter_add_exact(got, idx, bag_grads, offsets=offsets)
            np.testing.assert_array_equal(bits(got), bits(want))
            del got

    @run_case
    @settings(max_examples=120, deadline=None, **TIERED)
    def test_aggregate_starts_from_zero(self, runs, long_run, dim, special_share, seed):
        rng = np.random.default_rng(seed)
        idx, _ = shuffled_runs(rng, runs, long_run)
        vals = special_values(rng, (idx.shape[0], dim), special_share)
        uniq, inverse = np.unique(idx, return_inverse=True)
        want = np.zeros((uniq.shape[0], dim), dtype=np.float32)
        np.add.at(want, inverse, vals)
        got_uniq, got = aggregate_duplicates(idx, vals)
        np.testing.assert_array_equal(got_uniq, uniq)
        np.testing.assert_array_equal(bits(got), bits(want))

    @given(
        bags=st.lists(st.sampled_from([0, 0] + RUN_LENGTHS), min_size=1, max_size=12),
        long_run=st.sampled_from((0,) + LONG_RUNS),
        dim=st.sampled_from([1, 2, 64]),
        special_share=st.sampled_from([0.0, 0.05, 0.9]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None, **TIERED)
    def test_contiguous_bags_with_empty_ones(
        self, bags, long_run, dim, special_share, seed
    ):
        rng = np.random.default_rng(seed)
        lengths = rng.permutation(np.array(bags + ([long_run] if long_run else [])))
        offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        rows = special_values(rng, (int(offsets[-1]), dim), special_share)
        want = np.zeros((lengths.shape[0], dim), dtype=np.float32)
        np.add.at(want, np.repeat(np.arange(lengths.shape[0]), lengths), rows)
        got = segment_sum(rows, offsets)
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_all_negative_zero_row_stays_negative(self):
        # A reduction started from +0.0 would flip the sign.
        w = np.full((2, 2), -0.0, dtype=np.float32)
        dispatch.scatter_add_exact(
            w, np.array([1, 1, 1]), np.full((3, 2), -0.0, dtype=np.float32)
        )
        assert np.signbit(w).all()


class TestScatterChunks:
    """The NumPy tier's scatter applies a bounded block of look-ups at a
    time; ``np.add.at`` adds in array order, so the blocks do not change
    the bits wherever they cut a run."""

    @pytest.mark.usefixtures("numpy_tier")
    @pytest.mark.parametrize("dim", [1, 2, 64])
    def test_a_chunk_boundary_inside_a_row(self, rng, monkeypatch, dim):
        monkeypatch.setattr(row_kernels, "_BLOCK_ELEMS", 3 * dim)  # 3 look-ups a chunk
        idx = rng.permutation(np.repeat(np.arange(4), [1, 5, 8, 13])).astype(np.int64)
        bag_ids = np.sort(rng.integers(0, 5, size=idx.shape[0]))
        bag_grads = special_values(rng, (5, dim), 0.05)
        w0 = special_values(rng, (6, dim), 0.05)
        want = w0.copy()
        np.add.at(want, idx, bag_grads[bag_ids])
        offsets = np.searchsorted(bag_ids, np.arange(6))
        for deltas, bags in ((bag_grads[bag_ids], None), (bag_grads, offsets)):
            got = w0.copy()
            dispatch.scatter_add_exact(got, idx, deltas, offsets=bags)
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.usefixtures("kernel_tier")
    def test_one_run_longer_than_a_chunk_of_the_shipped_size(self, rng):
        dim = 64
        long_run = row_kernels._BLOCK_ELEMS // dim + 100
        idx, table_rows = shuffled_runs(rng, RUN_LENGTHS, long_run)
        deltas = special_values(rng, (idx.shape[0], dim), 0.05)
        w0 = special_values(rng, (table_rows, dim), 0.05)
        want = w0.copy()
        np.add.at(want, idx, deltas)
        dispatch.scatter_add_exact(w0, idx, deltas)
        np.testing.assert_array_equal(bits(w0), bits(want))

    @pytest.mark.usefixtures("kernel_tier")
    @pytest.mark.parametrize("dim", [1, 2, 64])
    def test_empty_input(self, rng, dim):
        none = np.empty(0, dtype=np.int64)
        w0 = special_values(rng, (5, dim), 0.5)
        w = w0.copy()
        dispatch.scatter_add_exact(w, none, np.empty((0, dim), np.float32))
        empty_bags = np.zeros(4, np.int64)
        dispatch.scatter_add_exact(w, none, special_values(rng, (3, dim), 0.5), offsets=empty_bags)
        np.testing.assert_array_equal(bits(w), bits(w0))
        uniq, agg = aggregate_duplicates(none, np.empty((0, dim), np.float32))
        assert uniq.shape == (0,) and agg.shape == (0, dim)


class TestNumpyFloor:
    """What the pooled forward assumes of NumPy, pinned so the oldest
    supported release (CI's 1.24 cell) is held to it."""

    @pytest.mark.parametrize("dim", [2, 3, 64])
    @pytest.mark.parametrize("length", [2, 9, 32, 200])
    def test_add_reduce_over_a_strided_axis_into_out_is_a_left_fold(self, rng, dim, length):
        # Pairwise summation would regroup from 8 addends on.
        bags = 5
        buf = special_values(rng, (bags * length + 3, dim), 0.02)[: bags * length]
        out = np.full((bags + 2, dim), 7.0, dtype=np.float32)
        with np.errstate(all="ignore"):
            got = np.add.reduce(buf.reshape(bags, length, dim), axis=1, out=out[1:-1])
        assert np.shares_memory(got, out)
        want = np.zeros((bags, dim), dtype=np.float32)  # the reduction's own start
        with np.errstate(all="ignore"):
            for k in range(length):
                want = want + buf.reshape(bags, length, dim)[:, k]
        np.testing.assert_array_equal(bits(out[1:-1]), bits(want))
        assert (out[0] == 7.0).all() and (out[-1] == 7.0).all()

    def test_take_with_out_and_clip_on_uint16_rows(self, rng):
        src = rng.integers(0, 1 << 16, size=(40, 6), dtype=np.uint16)
        idx = rng.integers(0, 40, size=100)
        out = np.zeros((120, 6), dtype=np.uint16)
        got = np.take(src, idx, axis=0, out=out[:100], mode="clip")
        assert np.shares_memory(got, out)
        np.testing.assert_array_equal(out[:100], src[idx])
        assert not out[100:].any()


class TestBucketByRowRanges:
    def naive_counts(self, indices, rows, threads):
        counts = np.zeros(threads, dtype=np.int64)
        for tid in range(threads):
            lo, hi = (rows * tid) // threads, (rows * (tid + 1)) // threads
            counts[tid] = int(((indices >= lo) & (indices < hi)).sum())
        return counts

    @given(
        rows=st.integers(1, 60),
        nnz=st.integers(0, 120),
        threads=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_mask_scans(self, rows, nnz, threads, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
        got = bucket_by_row_ranges(idx, rows, threads)
        np.testing.assert_array_equal(got, self.naive_counts(idx, rows, threads))
        assert got.sum() == nnz

    def test_more_threads_than_rows(self):
        # Threads owning empty row ranges must count zero.
        counts = bucket_by_row_ranges(np.array([0, 1, 1]), rows=2, threads=5)
        assert counts.sum() == 3
        np.testing.assert_array_equal(counts, self.naive_counts(np.array([0, 1, 1]), 2, 5))

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            bucket_by_row_ranges(np.array([0]), 4, 0)

    @pytest.mark.parametrize("rows,threads", [(1, 28), (3, 28), (27, 28), (5, 7)])
    def test_every_row_of_a_table_smaller_than_the_team(self, rows, threads):
        idx = np.repeat(np.arange(rows), 2)
        np.testing.assert_array_equal(
            bucket_by_row_ranges(idx, rows, threads),
            self.naive_counts(idx, rows, threads),
        )

    @pytest.mark.parametrize("threads", [1, 3, 28])
    def test_row_times_threads_just_below_int64(self, threads):
        rows = (2**63 - 1) // threads
        edges = [(rows * t) // threads for t in range(threads + 1)]
        idx = np.array(
            sorted({i for e in edges for i in (e - 1, e, e + 1) if 0 <= i < rows}),
            dtype=np.int64,
        )
        counts = bucket_by_row_ranges(idx, rows, threads)
        np.testing.assert_array_equal(counts, self.naive_counts(idx, rows, threads))
        assert counts.sum() == idx.shape[0]

    def test_rejects_a_product_past_int64(self):
        with pytest.raises(ValueError, match="int64"):
            bucket_by_row_ranges(np.array([0]), 2**62, 2)

    def test_rejects_rows_past_the_table(self):
        with pytest.raises(IndexError):
            bucket_by_row_ranges(np.array([0, 10]), rows=10, threads=4)
