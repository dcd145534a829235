"""EmbeddingBag forward/backward (Algorithms 1-2) against naive loops."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bf16 import bf16_to_fp32, combine_fp32
from repro.core.embedding import EmbeddingBag, SparseGrad, SplitEmbeddingBag
from repro.kernels import reference, rows as row_kernels
from repro.kernels.lookup import check_offsets
from tests.conftest import (
    TIERED,
    bag_of,
    capacity_bytes,
    scatter_add_rows_oracle,
    split_fp32,
    truncate_lo_bits,
)
from tests.kernels.test_segment import bits, special_values


def segment_sum(rows, offsets):
    """``reference.segment_sum`` on offsets the one checker has passed."""
    return reference.segment_sum(rows, check_offsets(offsets, rows.shape[0]))


def naive_forward(w, indices, offsets):
    """Literal Algorithm 1."""
    n = len(offsets) - 1
    y = np.zeros((n, w.shape[1]), dtype=np.float32)
    for b in range(n):
        for s in range(offsets[b], offsets[b + 1]):
            y[b] += w[indices[s]]
    return y


def make_lookup(rng, rows, n, max_len=5, allow_empty=True):
    lengths = rng.integers(0 if allow_empty else 1, max_len + 1, size=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    indices = rng.integers(0, rows, size=int(offsets[-1]), dtype=np.int64)
    return indices, offsets


class TestSegmentSum:
    def test_equal_length_fast_path(self, rng):
        rows = rng.standard_normal((12, 4)).astype(np.float32)
        offsets = np.array([0, 3, 6, 9, 12])
        out = segment_sum(rows, offsets)
        np.testing.assert_allclose(out[1], rows[3:6].sum(axis=0), rtol=1e-6)

    def test_ragged_with_empty_bags(self, rng):
        rows = rng.standard_normal((5, 3)).astype(np.float32)
        offsets = np.array([0, 0, 2, 2, 5])
        out = segment_sum(rows, offsets)
        assert np.array_equal(out[0], np.zeros(3, np.float32))
        assert np.array_equal(out[2], np.zeros(3, np.float32))
        np.testing.assert_allclose(out[3], rows[2:5].sum(axis=0), rtol=1e-6)

    def test_rejects_decreasing_offsets(self, rng):
        rows = rng.standard_normal((4, 2)).astype(np.float32)
        with pytest.raises(ValueError, match="non-decreasing"):
            segment_sum(rows, np.array([0, 3, 2, 4]))

    def test_rejects_bad_span(self, rng):
        rows = rng.standard_normal((4, 2)).astype(np.float32)
        with pytest.raises(ValueError, match="span"):
            segment_sum(rows, np.array([0, 2, 3]))


class TestForward:
    @pytest.mark.usefixtures("kernel_tier")
    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 1_000_000))
    @settings(max_examples=50, deadline=None, **TIERED)
    def test_matches_naive_algorithm1(self, rows, n, seed):
        rng = np.random.default_rng(seed)
        table = EmbeddingBag(rows, 6, rng=rng)
        indices, offsets = make_lookup(rng, rows, n)
        got = table.forward(indices, offsets)
        want = naive_forward(table.weight, indices, offsets)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_fixed_length_bags(self, rng):
        table = EmbeddingBag(100, 8, rng=rng)
        indices = rng.integers(0, 100, size=4 * 7, dtype=np.int64)
        offsets = np.arange(0, 29, 7)
        got = table.forward(indices, offsets)
        want = naive_forward(table.weight, indices, offsets)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.usefixtures("kernel_tier")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf: wanted inputs
    @given(
        n=st.integers(0, 12),
        max_len=st.sampled_from([0, 1, 5, 40]),
        dim=st.sampled_from([1, 2, 3, 16, 64, 65]),
        split=st.booleans(),
        special_share=st.sampled_from([0.0, 0.05, 0.9]),
        negative_zero=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None, **TIERED)
    def test_ragged_bags_are_add_at_bit_for_bit(
        self, n, max_len, dim, split, special_share, negative_zero, seed
    ):
        """Ragged, empty and unit bags, no look-ups at all, specials in
        the rows and an all ``-0.0`` table (every sum starts from +0.0),
        FP32 and Split-BF16 storage: literal ``np.add.at`` into zeros."""
        rng = np.random.default_rng(seed)
        rows = 17
        w = special_values(rng, (rows, dim), special_share)
        if negative_zero:
            w[...] = -0.0
        table = bag_of(w, SplitEmbeddingBag if split else EmbeddingBag)
        indices, offsets = make_lookup(rng, rows, n, max_len=max_len)
        got = table.forward(indices, offsets)
        want = reference.segment_sum(table.dense_weight()[indices], offsets)
        assert got.dtype == np.float32 and got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(bits(got), bits(want))
        assert not (negative_zero and np.signbit(got).any())

    def test_out_of_range_index_raises(self, rng):
        table = EmbeddingBag(10, 4, rng=rng)
        with pytest.raises(IndexError):
            table.forward(np.array([10]), np.array([0, 1]))
        with pytest.raises(IndexError):
            table.forward(np.array([-1]), np.array([0, 1]))

    def test_init_bound_scales_with_rows(self):
        t = EmbeddingBag(10_000, 16, rng=np.random.default_rng(0))
        assert np.abs(t.weight).max() <= np.sqrt(1.0 / 10_000) + 1e-7

    def test_explicit_weight(self):
        w = np.arange(12, dtype=np.float32).reshape(3, 4)
        t = bag_of(w)
        out = t.forward(np.array([0, 2]), np.array([0, 2]))
        np.testing.assert_array_equal(out[0], w[0] + w[2])

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            EmbeddingBag(3, 4).load_state_dict({"weight": np.zeros((4, 3), np.float32)})


class TestBackward:
    def test_each_lookup_gets_bag_gradient(self, rng):
        table = EmbeddingBag(20, 4, rng=rng)
        indices = np.array([3, 7, 7, 1])
        offsets = np.array([0, 2, 4])
        dy = rng.standard_normal((2, 4)).astype(np.float32)
        grad = table.backward(dy, indices, offsets)
        assert np.array_equal(grad.indices, indices)
        np.testing.assert_array_equal(grad.values[0], dy[0])
        np.testing.assert_array_equal(grad.values[1], dy[0])
        np.testing.assert_array_equal(grad.values[2], dy[1])
        np.testing.assert_array_equal(grad.values[3], dy[1])

    def test_empty_bags_produce_no_rows(self, rng):
        table = EmbeddingBag(20, 4, rng=rng)
        grad = table.backward(
            rng.standard_normal((3, 4)).astype(np.float32),
            np.array([5]),
            np.array([0, 0, 1, 1]),
        )
        assert grad.nnz == 1

    def test_bag_count_mismatch_raises(self, rng):
        """The take-gather expansion must fail as loudly as np.repeat did
        when grad_out rows disagree with the offsets' bag count (a
        clip-mode gather would silently reuse the last row)."""
        table = EmbeddingBag(20, 4, rng=rng)
        with pytest.raises(ValueError, match="bags"):
            table.backward(
                rng.standard_normal((1, 4)).astype(np.float32),
                np.array([3, 7, 7, 1]),
                np.array([0, 2, 4]),
            )

    def test_gather_out_of_range_raises(self, rng):
        """Public gather keeps fancy indexing's loud OOR failure despite
        the clip-mode take underneath."""
        table = EmbeddingBag(20, 4, rng=rng)
        with pytest.raises(IndexError):
            table.gather(np.array([19, 20]))

    def test_grad_then_fwd_consistency(self, rng):
        """d(sum(Y))/dW scattered back equals ones in every looked-up row."""
        table = EmbeddingBag(10, 3, rng=rng)
        indices, offsets = make_lookup(rng, 10, 6, allow_empty=False)
        dy = np.ones((6, 3), dtype=np.float32)
        grad = table.backward(dy, indices, offsets)
        dense = np.zeros((10, 3), dtype=np.float32)
        np.add.at(dense, grad.indices, grad.values)
        counts = np.bincount(indices, minlength=10).astype(np.float32)
        np.testing.assert_allclose(dense[:, 0], counts)


class TestSparseGrad:
    def test_aggregated_folds_duplicates(self):
        g = SparseGrad(
            np.array([2, 2, 5]),
            np.array([[1.0, 0.0], [3.0, 1.0], [2.0, 2.0]], dtype=np.float32),
        )
        uniq, agg = g.aggregated()
        assert np.array_equal(uniq, [2, 5])
        np.testing.assert_array_equal(agg[0], [4.0, 1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SparseGrad(np.array([1, 2]), np.zeros((3, 4), np.float32))


class TestSplitEmbeddingBag:
    def test_dense_weight_is_bf16_of_master(self, rng):
        t = SplitEmbeddingBag(50, 8, rng=rng)
        master = t.master_weight()
        # hi is the *truncation* of the master to 16 bits.
        hi_widened = t.dense_weight()
        err = np.abs(hi_widened - master)
        assert np.all(err <= 2.0 ** (np.floor(np.log2(np.abs(master) + 1e-30)) - 7))

    def test_forward_uses_bf16_half(self, rng):
        w = rng.standard_normal((10, 4)).astype(np.float32)
        t = bag_of(w, SplitEmbeddingBag)
        idx = np.arange(10)
        off = np.arange(11)
        got = t.forward(idx, off)
        np.testing.assert_array_equal(got, t.dense_weight())

    def test_update_is_fp32_accurate(self, rng):
        """The split update must match an FP32 table's update on the
        master weights exactly (that is the whole point of Split-SGD)."""
        w = rng.standard_normal((20, 4)).astype(np.float32)
        split = bag_of(w, SplitEmbeddingBag)
        idx = np.array([3, 3, 7])
        deltas = rng.standard_normal((3, 4)).astype(np.float32)
        split.scatter_add_rows(idx, deltas)
        ref = w.copy()
        np.add.at(ref, idx, deltas)
        np.testing.assert_allclose(split.master_weight(), ref, rtol=1e-6, atol=1e-7)

    def test_lo_bits_8_quantises_state(self, rng):
        t = SplitEmbeddingBag(10, 4, rng=rng, lo_bits=8)
        assert not (t.lo & np.uint16(0x00FF)).any()

    def test_capacity_equals_fp32(self, rng):
        """Split storage needs no master copy: 4 bytes/element total."""
        fp32 = EmbeddingBag(100, 8, rng=rng)
        split = SplitEmbeddingBag(100, 8, rng=rng)
        assert capacity_bytes(split) == capacity_bytes(fp32)

    def test_rejects_bad_lo_bits(self):
        with pytest.raises(ValueError):
            SplitEmbeddingBag(4, 4, lo_bits=17)


class TestConstruction:
    @pytest.mark.parametrize("rows,dim", [(0, 4), (4, 0), (-1, 4)])
    def test_rejects_bad_shape(self, rows, dim):
        with pytest.raises(ValueError):
            EmbeddingBag(rows, dim)


class TestOptimizedKernelBitIdentity:
    """The sort-based kernels must reproduce the naive np.add.at
    formulations bit for bit (not just allclose) on every shape."""

    @given(
        rows=st.integers(1, 40),
        n=st.integers(1, 20),
        dim=st.integers(2, 9),
        seed=st.integers(0, 1_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_sum_vs_add_at(self, rows, n, dim, seed):
        rng = np.random.default_rng(seed)
        indices, offsets = make_lookup(rng, rows, n)
        gathered = rng.standard_normal((indices.size, dim)).astype(np.float32)
        want = np.zeros((n, dim), dtype=np.float32)
        np.add.at(want, np.repeat(np.arange(n), np.diff(offsets)), gathered)
        assert np.array_equal(segment_sum(gathered, offsets), want)

    @given(
        rows=st.integers(1, 30),
        nnz=st.integers(0, 150),
        seed=st.integers(0, 1_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_aggregated_vs_unique_add_at(self, rows, nnz, seed):
        rng = np.random.default_rng(seed)
        dim = 4
        g = SparseGrad(
            rng.integers(0, rows, size=nnz, dtype=np.int64),
            rng.standard_normal((nnz, dim)).astype(np.float32),
        )
        uniq_w, inverse = np.unique(g.indices, return_inverse=True)
        agg_w = np.zeros((uniq_w.shape[0], dim), dtype=np.float32)
        np.add.at(agg_w, inverse, g.values)
        uniq, agg = g.aggregated()
        np.testing.assert_array_equal(uniq, uniq_w)
        assert np.array_equal(agg, agg_w)

    @pytest.mark.usefixtures("kernel_tier")
    @pytest.mark.parametrize("dim", [2, 4, 1])  # dim=1 exercises the NumPy tier's fallback
    def test_fp32_scatter_vs_add_at(self, rng, dim):
        rows = 12
        idx = rng.integers(0, rows, size=200, dtype=np.int64)  # duplicate-heavy
        deltas = rng.standard_normal((200, dim)).astype(np.float32)
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        fast = bag_of(w0)
        fast.scatter_add_rows(idx, deltas)
        naive = bag_of(w0)
        scatter_add_rows_oracle(naive, idx, deltas)
        assert np.array_equal(fast.weight, naive.weight)

    @pytest.mark.usefixtures("kernel_tier")
    @pytest.mark.parametrize("lo_bits", [16, 8])
    def test_split_bf16_scatter_vs_reference(self, rng, lo_bits):
        rows, dim = 16, 4
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        idx = rng.integers(0, rows, size=120, dtype=np.int64)
        deltas = rng.standard_normal((120, dim)).astype(np.float32)
        fast = bag_of(w0, SplitEmbeddingBag, lo_bits=lo_bits)
        fast.scatter_add_rows(idx, deltas)
        naive = bag_of(w0, SplitEmbeddingBag, lo_bits=lo_bits)
        scatter_add_rows_oracle(naive, idx, deltas)
        assert np.array_equal(fast.hi, naive.hi)
        assert np.array_equal(fast.lo, naive.lo)

    @pytest.mark.parametrize("lo_bits", [16, 8, 0])
    def test_split_row_update_and_gather_vs_split_combine_formula(self, rng, lo_bits):
        """The NumPy tier's in-place row update and the hi-only gather
        against the textbook formulation on the repro.core.bf16 helpers,
        with specials in both the rows and the deltas."""
        rows, dim = 32, 8
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        w0[0, :4] = [np.inf, -np.inf, 0.0, -0.0]
        w0[1, :3] = [np.nan, 1e-45, np.finfo(np.float32).max]
        table = bag_of(w0, SplitEmbeddingBag, lo_bits=lo_bits)
        hi0, lo0 = table.hi.copy(), table.lo.copy()
        uniq = np.array([0, 1, 5, 6, 31], dtype=np.int64)
        agg = rng.standard_normal((uniq.size, dim)).astype(np.float32)
        agg[0, :2] = [-np.inf, 1.0]  # inf - inf, -inf + 1
        agg[1, 2] = np.finfo(np.float32).max  # overflow to inf
        with np.errstate(all="ignore"):
            row_kernels.split_add_aggregated(table.hi, table.lo, lo_bits, uniq, agg)
            want = combine_fp32(hi0[uniq], lo0[uniq]) + agg
        want_hi, want_lo = split_fp32(want)
        hi0[uniq], lo0[uniq] = want_hi, truncate_lo_bits(want_lo, lo_bits)
        assert np.array_equal(table.hi, hi0)
        assert np.array_equal(table.lo, lo0)
        idx = np.array([1, 31, 0, 0, 7], dtype=np.int64)
        got = table.gather(idx)
        assert got.dtype == np.float32 and got.flags["C_CONTIGUOUS"]
        assert np.array_equal(
            got.view(np.uint32), bf16_to_fp32(table.hi[idx]).view(np.uint32)
        )

    @pytest.mark.usefixtures("kernel_tier")
    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_bag_updates_vs_backward_then_scatter(self, rng, storage):
        """The fused entry point == materialise dW, then scatter."""
        rows, dim, n = 10, 4, 8
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        cls = SplitEmbeddingBag if storage == "split_bf16" else EmbeddingBag
        indices, offsets = make_lookup(rng, rows, n)
        dy = rng.standard_normal((n, dim)).astype(np.float32)
        naive = bag_of(w0, cls)
        grad = naive.backward(dy, indices, offsets)
        scatter_add_rows_oracle(naive, grad.indices, grad.values)
        fused = bag_of(w0, cls)
        fused.scatter_add_rows(indices, dy, offsets=offsets)
        assert np.array_equal(fused.dense_weight(), naive.dense_weight())

    def test_empty_grad_is_noop(self, rng):
        table = EmbeddingBag(5, 3, rng=rng)
        before = table.weight.copy()
        table.scatter_add_rows(np.empty(0, np.int64), np.empty((0, 3), np.float32))
        np.testing.assert_array_equal(table.weight, before)


class TestBlockedPooledForward:
    """Equal-length bags: the NumPy tier pools them chunk by chunk
    through the bag's own buffer, the native tier bag by bag; the result
    is literal ``np.add.at`` whatever the tier and the chunking."""

    @staticmethod
    def add_at(rows, n, p):
        """Literal ``np.add.at`` into zeroed bags."""
        want = np.zeros((n, rows.shape[1]), dtype=np.float32)
        np.add.at(want, np.repeat(np.arange(n), p), rows)
        return want

    @pytest.mark.usefixtures("kernel_tier")
    @given(
        n=st.integers(1, 40),
        p=st.sampled_from([1, 2, 3, 8, 9, 33]),
        dim=st.sampled_from([1, 2, 5, 64]),
        block=st.sampled_from([None, 64, 64 * 7, 64 * 33 * 3]),
        split=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None, **TIERED)
    def test_matches_add_at_for_any_chunking(self, n, p, dim, block, split, seed):
        rng = np.random.default_rng(seed)
        rows = 23
        w = rng.standard_normal((rows, dim)).astype(np.float32)
        w[rng.random((rows, dim)) < 0.1] = -0.0
        w[0, 0], w[1, -1] = np.inf, 1e-45
        table = bag_of(w, SplitEmbeddingBag if split else EmbeddingBag)
        indices = rng.integers(0, rows, size=n * p)
        offsets = np.arange(0, n * p + 1, p)
        with mock.patch.object(row_kernels, "_BLOCK_ELEMS", block or row_kernels._BLOCK_ELEMS):
            got = table.forward(indices, offsets)
        with np.errstate(invalid="ignore"):
            want = self.add_at(table.dense_weight()[indices], n, p)
        assert got.dtype == np.float32 and got.shape == (n, dim) and got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_buffer_is_reused_and_grows_only_when_a_bag_outgrows_it(
        self, rng, monkeypatch, numpy_tier
    ):
        monkeypatch.setattr(row_kernels, "_BLOCK_ELEMS", 4 * 6 * 5)
        table = EmbeddingBag(30, 4, rng=rng)
        table.forward(rng.integers(0, 30, size=6 * 50), np.arange(0, 301, 6))
        assert table._scratch.nbytes == 6 * 5 * 4 * 4
        table.forward(rng.integers(0, 30, size=6 * 3), np.arange(0, 19, 6))
        assert (table._scratch.allocations, table._scratch.hits) == (1, 1)
        got = table.forward(np.arange(80) % 30, np.array([0, 40, 80]))  # one bag > a block
        assert table._scratch.nbytes == 40 * 4 * 4
        np.testing.assert_array_equal(got, self.add_at(table.weight[np.arange(80) % 30], 2, 40))

    def test_unit_bags_gather_straight_into_the_output(self, rng, numpy_tier):
        table = EmbeddingBag(30, 4, rng=rng)
        idx = rng.integers(0, 30, size=17)
        got = table.forward(idx, np.arange(18))
        np.testing.assert_array_equal(got, table.weight[idx])
        assert len(table._scratch) == 0

    def test_offsets_must_span_the_look_ups(self, rng):
        table = EmbeddingBag(30, 4, rng=rng)
        dy = np.ones((2, 4), np.float32)
        for bad in ([0, 2, 3], [1, 2, 4], [0, 3, 2, 4]):
            with pytest.raises(ValueError):
                table.forward(np.arange(4), np.array(bad))
            with pytest.raises(ValueError):
                table.backward(dy, np.arange(4), np.array(bad))
