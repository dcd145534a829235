"""The production fold against a step-by-step ring written as its oracle.

``tests/comm/ring_reference.py`` executes the paper's allreduce
(recursive-halving reduce-scatter + ring allgather) with explicit
per-step sends; nothing in ``src/`` calls it.  These tests hold the two
realisations a training step uses -- ``tree_sum`` (the thread pool's
``reduce_map``) and the worker-partial fold of the process backend
(``canonical_node_partials`` + ``sum_canonical_partials``) -- to it
bitwise, and pin the oracle itself to the algorithm's defining property
(the ``(R-1)/R`` per-rank transfer volume the cost model prices).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import (
    canonical_node_partials,
    sum_canonical_partials,
    tree_sum,
)
from repro.kernels.threads import static_partition
from tests.comm.ring_reference import (
    RingTrace,
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
)


def bufs(rng, r, rows=12, cols=3):
    return [rng.standard_normal((rows, cols)).astype(np.float32) for _ in range(r)]


def worker_partial_fold(b, workers):
    """The process backend's sum: every worker folds its contiguous rank
    range to canonical-node partials, everyone completes the tree."""
    r = len(b)
    partials = {}
    for lo, hi in static_partition(r, workers):
        if hi > lo:
            partials.update(canonical_node_partials(b[lo:hi], lo, hi, r))
    return sum_canonical_partials(partials, r)


class TestRingReduceScatter:
    @given(st.integers(1, 8), st.integers(1, 20), st.integers(0, 999))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_semantics(self, r, rows, seed):
        rng = np.random.default_rng(seed)
        b = bufs(rng, r, rows=rows)
        ring = ring_reduce_scatter(b)
        direct = np.array_split(tree_sum(b), r, axis=0)
        assert len(ring) == len(direct)
        for a, d in zip(ring, direct):
            np.testing.assert_allclose(a, d, rtol=1e-5, atol=1e-6)

    def test_trace_counts_merge_levels(self, rng):
        """Recursive halving finishes in ceil(log2 R) merge levels."""
        for r, want in ((2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
            t = RingTrace()
            ring_reduce_scatter(bufs(rng, r), t)
            assert t.steps == want

    def test_each_rank_sends_fraction_of_buffer(self, rng):
        """The defining property: (R-1)/R of the buffer per rank."""
        r, rows = 4, 16
        b = bufs(rng, r, rows=rows)
        t = RingTrace()
        ring_reduce_scatter(b, t)
        expected = b[0].nbytes * (r - 1) / r
        for sent in t.bytes_sent:
            assert sent == pytest.approx(expected, rel=1e-6)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            ring_reduce_scatter([np.zeros((2, 2)), np.zeros((3, 2))])

    def test_single_rank(self, rng):
        b = bufs(rng, 1)
        out = ring_reduce_scatter(b)
        np.testing.assert_array_equal(out[0], b[0])


class TestRingAllgather:
    @given(st.integers(1, 8), st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_every_rank_assembles_everything(self, r, seed):
        rng = np.random.default_rng(seed)
        chunks = [rng.standard_normal((i + 1, 2)).astype(np.float32) for i in range(r)]
        out = ring_allgather(chunks)
        want = np.concatenate(chunks)
        for o in out:
            np.testing.assert_array_equal(o, want)

    def test_bytes_sent_bound(self, rng):
        chunks = [rng.standard_normal((4, 2)).astype(np.float32) for _ in range(4)]
        t = RingTrace()
        ring_allgather(chunks, t)
        # Each rank forwards R-1 chunks.
        for sent in t.bytes_sent:
            assert sent == pytest.approx(3 * chunks[0].nbytes)


class TestRingAllreduce:
    @given(st.integers(1, 8), st.integers(1, 24), st.integers(0, 999))
    @settings(max_examples=50, deadline=None)
    def test_equals_direct_allreduce(self, r, rows, seed):
        rng = np.random.default_rng(seed)
        b = bufs(rng, r, rows=rows)
        direct = tree_sum(b)
        for a in ring_allreduce(b):
            np.testing.assert_allclose(a, direct, rtol=1e-5, atol=1e-6)

    def test_bandwidth_optimality(self, rng):
        """Total transmitted per rank = 2 (R-1)/R * nbytes -- the bound
        the cost model's allreduce time is built on."""
        r = 8
        b = bufs(rng, r, rows=r * 4)  # divisible chunks
        t = RingTrace()
        ring_allreduce(b, t)
        expected = 2 * (r - 1) / r * b[0].nbytes
        for sent in t.bytes_sent:
            assert sent == pytest.approx(expected, rel=1e-6)

    def test_total_steps(self, rng):
        # ceil(log2 6) = 3 halving levels, then a 5-step gather ring.
        t = RingTrace()
        ring_allreduce(bufs(rng, 6), t)
        assert t.steps == 3 + 5

    def test_uneven_chunking_still_exact(self, rng):
        b = bufs(rng, 3, rows=7)  # 7 rows over 3 ranks
        ring = ring_allreduce(b)
        want = np.sum(b, axis=0, dtype=np.float32)
        for o in ring:
            np.testing.assert_allclose(o, want, rtol=1e-5)


class TestRingMatchesFold:
    """The step-by-step ring and the folds a training step runs are the
    *same algorithm* at two abstraction levels: identical bits,
    identical virtual-time charges.  Odd/awkward rank counts on purpose
    (uneven halving trees AND uneven chunking)."""

    @pytest.mark.parametrize("r", [3, 5, 6])
    def test_bitwise_identical_sums(self, rng, r):
        b = bufs(rng, r, rows=2 * r + 1)  # uneven chunks
        want = tree_sum(b)
        for o in ring_allreduce(b):
            np.testing.assert_array_equal(o, want)  # bitwise, not allclose
        for workers in range(1, r + 1):
            np.testing.assert_array_equal(worker_partial_fold(b, workers), want)

    @pytest.mark.parametrize("r", [3, 5, 6])
    def test_reduce_scatter_bitwise_identical(self, rng, r):
        b = bufs(rng, r, rows=2 * r + 1)
        for workers in (1, 2, r):
            fold = np.array_split(worker_partial_fold(b, workers), r, axis=0)
            for o, f in zip(ring_reduce_scatter(b), fold):
                np.testing.assert_array_equal(o, f)

    @pytest.mark.parametrize("r", [3, 5, 6])
    def test_virtual_time_charges_match(self, rng, r):
        """The reducer's transfer issue -- what a step charges for a
        gradient bucket -- and a bare issue of the ring's cost for the
        same byte volume land every rank on the same virtual clock and
        charge the same wait time: the timing model prices the data
        path purely by bytes, never by which algorithm moved them."""
        from repro.comm.ddp import DistributedDataParallelReducer
        from repro.parallel.cluster import SimCluster

        nbytes = bufs(rng, r, rows=2 * r + 1)[0].nbytes
        stepped = SimCluster(r, platform="cluster", backend="ccl")
        analytic = SimCluster(r, platform="cluster", backend="ccl")
        # Stagger the ranks identically on both clusters so the waits
        # are nontrivial (late ranks expose less of the transfer).
        for rank in range(r):
            stepped.charge(rank, 1e-4 * rank, "compute.mlp.top.bwd")
            analytic.charge(rank, 1e-4 * rank, "compute.mlp.top.bwd")
        sh = DistributedDataParallelReducer(stepped).issue_transfer(nbytes)
        ah = analytic.issue(
            "allreduce", analytic.net.allreduce(analytic.participants(), nbytes)
        )
        for rank in range(r):
            assert sh.wait(rank) == ah.wait(rank) > 0
        for rank in range(r):
            assert stepped.clocks[rank].now == analytic.clocks[rank].now
            assert (
                stepped.profilers[rank].as_dict()
                == analytic.profilers[rank].as_dict()
            )
