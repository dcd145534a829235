"""The canonical summation tree: exactness against NumPy references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import (
    canonical_node_partials,
    canonical_range_nodes,
    sum_canonical_partials,
    tree_sum,
)


def rank_buffers(rng, r, shape=(6, 4)):
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(r)]


def contiguous_partitions(r, parts):
    """All ways to cut [0, r) into ``parts`` non-empty contiguous ranges."""
    if parts == 1:
        yield [(0, r)]
        return
    for cut in range(1, r - parts + 2):
        for rest in contiguous_partitions(r - cut, parts - 1):
            yield [(0, cut)] + [(lo + cut, hi + cut) for lo, hi in rest]


class TestCanonicalTree:
    """The summation-tree contract underneath the bucketed allreduce:
    any contiguous partition of the ranks (= any worker layout of the
    process backend) reduces to the *same bits* via subtree partials."""

    @given(st.integers(1, 8), st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_tree_sum_is_exact_sum(self, r, seed):
        bufs = rank_buffers(np.random.default_rng(seed), r)
        np.testing.assert_allclose(
            tree_sum(bufs),
            np.sum(bufs, axis=0, dtype=np.float64),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_tree_sum_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_sum([])

    def test_inputs_not_mutated(self, rng):
        bufs = rank_buffers(rng, 3)
        copies = [b.copy() for b in bufs]
        tree_sum(bufs)
        for b, c in zip(bufs, copies):
            np.testing.assert_array_equal(b, c)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            tree_sum([np.zeros((2, 2), np.float32), np.zeros((3, 2), np.float32)])

    def test_tree_sum_single_returns_copy(self, rng):
        b = rank_buffers(rng, 1)
        out = tree_sum(b)
        np.testing.assert_array_equal(out, b[0])
        assert out is not b[0]

    def test_range_nodes_cover_range_maximally(self):
        for size in range(1, 14):
            for lo in range(size):
                for hi in range(lo + 1, size + 1):
                    nodes = canonical_range_nodes(lo, hi, size)
                    assert nodes[0][0] == lo and nodes[-1][1] == hi
                    for (a, b), (c, d) in zip(nodes, nodes[1:]):
                        assert b == c

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 8, 13])
    def test_every_contiguous_partition_is_bitwise_identical(self, rng, r):
        """Hierarchical fold == flat fold, for every worker layout."""
        bufs = rank_buffers(rng, r, shape=(5, 3))
        want = tree_sum(bufs)
        for parts in range(1, r + 1):
            for partition in contiguous_partitions(r, parts):
                partials = {}
                for lo, hi in partition:
                    partials.update(
                        canonical_node_partials(bufs[lo:hi], lo, hi, r)
                    )
                got = sum_canonical_partials(partials, r)
                np.testing.assert_array_equal(got, want)

    def test_missing_partial_raises(self, rng):
        bufs = rank_buffers(rng, 4)
        partials = canonical_node_partials(bufs[:2], 0, 2, 4)
        with pytest.raises(ValueError, match="no partial covers rank"):
            sum_canonical_partials(partials, 4)

    def test_completion_root_is_fresh(self, rng):
        """The completed sum must never alias a mailbox view: the process
        backend reads peers' partials zero-copy from a double-buffered
        segment whose lifetime ends at the next round."""
        bufs = rank_buffers(rng, 2)
        partials = canonical_node_partials(bufs, 0, 2, 2)
        out = sum_canonical_partials(partials, 2)
        for p in partials.values():
            assert out is not p
        # Single-node completion (whole range is one worker) too:
        whole = {(0, 2): tree_sum(bufs)}
        out2 = sum_canonical_partials(whole, 2)
        assert out2 is not whole[(0, 2)]


class TestFoldIntoACallersBuffer:
    """``out=``: the same tree, the same bits, in the caller's buffer --
    in L2-sized blocks for flat inputs -- and the inputs only read."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("size", [0, 1, 7, 96, 100])
    def test_flat_buffers_fold_in_blocks_to_the_same_bits(self, rng, monkeypatch, r, size):
        from repro.comm import collectives

        monkeypatch.setattr(collectives, "FOLD_BLOCK", 32)  # 100 = 3 blocks and a tail
        bufs = rank_buffers(rng, r, shape=(size,))
        keep = [b.copy() for b in bufs]
        for b in bufs:
            b.flags.writeable = False
        want = collectives._fold({(i, i + 1): b for i, b in enumerate(bufs)}, 0, r)[0]
        out = np.full(size, np.nan, np.float32)
        assert tree_sum(bufs, out=out) is out
        np.testing.assert_array_equal(out.view(np.uint32), want.view(np.uint32))
        assert not any(np.shares_memory(out, b) for b in bufs)
        for b, k in zip(bufs, keep):
            np.testing.assert_array_equal(b, k)

    @pytest.mark.parametrize("r", [1, 3, 4])
    def test_other_shapes_fold_whole(self, rng, r):
        bufs = rank_buffers(rng, r, shape=(6, 4))
        out = np.empty((6, 4), np.float32)
        assert tree_sum(bufs, out=out) is out
        np.testing.assert_array_equal(out, tree_sum(bufs))
        with pytest.raises(ValueError):
            tree_sum(bufs + [np.zeros(5, np.float32)], out=out)

    def test_partials_complete_into_out_for_every_worker_layout(self, rng):
        bufs = rank_buffers(rng, 5, shape=(70,))
        want = tree_sum(bufs)
        for parts in range(1, 6):
            for partition in contiguous_partitions(5, parts):
                partials = {}
                for lo, hi in partition:
                    partials.update(canonical_node_partials(bufs[lo:hi], lo, hi, 5))
                out = np.empty(70, np.float32)
                assert sum_canonical_partials(partials, 5, out=out) is out
                np.testing.assert_array_equal(out, want)
