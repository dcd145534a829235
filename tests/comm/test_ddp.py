"""DDP gradient reducer: slab-slice buckets + framework cost accounting."""

import numpy as np
import pytest

from repro.comm.collectives import tree_sum
from repro.comm.ddp import BucketSlice, DistributedDataParallelReducer, GradientBucketer
from repro.core.param import DenseSlab, Parameter
from repro.parallel.cluster import SimCluster


def _rank_params(grads):
    """One rank's tensors, adopted by a slab, with ``grads`` pending."""
    params = [Parameter(np.zeros_like(g)) for g in grads]
    DenseSlab(params)
    for p, g in zip(params, grads):
        p.accumulate_grad(g)
    return params


def _allreduce_grads(reducer, grads):
    """One bucket of ``DistributedDLRM.train_step``'s production path:
    per-rank pack (a slice of the gradient flat), canonical-tree fold,
    transfer issue, then per-rank wait + unpack.  Returns every rank's
    parameters and the sum."""
    ranks = [_rank_params(g) for g in grads]
    ends = [BucketSlice.of(params) for params in ranks]
    summed = tree_sum([reducer.pack_grads(r, end) for r, end in enumerate(ends)])
    handle = reducer.issue_transfer(summed.nbytes)
    for r, end in enumerate(ends):
        handle.wait(r)
        reducer.unpack_grads(r, end, summed)
    return ranks, summed


class TestAllreduceGrads:
    def test_sums_in_place(self, rng):
        cluster = SimCluster(3, backend="ccl")
        reducer = DistributedDataParallelReducer(cluster)
        grads = [
            [rng.standard_normal((4, 3)).astype(np.float32), rng.standard_normal(5).astype(np.float32)]
            for _ in range(3)
        ]
        want0 = np.sum([g[0] for g in grads], axis=0, dtype=np.float32)
        want1 = np.sum([g[1] for g in grads], axis=0, dtype=np.float32)
        ranks, summed = _allreduce_grads(reducer, grads)
        slab = ranks[0][0].slab
        np.testing.assert_allclose(slab.view(summed, 0), want0, rtol=1e-5)
        np.testing.assert_allclose(slab.view(summed, 1), want1, rtol=1e-5)
        for params, own in zip(ranks, grads):  # the receive end is a charge, not a copy
            np.testing.assert_array_equal(params[0].grad, own[0])
            np.testing.assert_array_equal(params[1].grad, own[1])

    def test_framework_cost_charged(self, rng):
        cluster = SimCluster(2, backend="ccl")
        reducer = DistributedDataParallelReducer(cluster)
        grads = [[np.ones((2000, 2000), np.float32)] for _ in range(2)]
        _allreduce_grads(reducer, grads)
        assert cluster.profilers[0].get("comm.allreduce.framework") > 0
        assert cluster.profilers[0].get("comm.allreduce.wait") > 0

    def test_tensor_count_validated(self, rng):
        """Ranks that packed different tensor lists cannot be folded."""
        cluster = SimCluster(2, backend="ccl")
        reducer = DistributedDataParallelReducer(cluster)
        with pytest.raises(ValueError):
            _allreduce_grads(
                reducer,
                [[np.zeros(2, np.float32)], [np.zeros(2, np.float32), np.zeros(2, np.float32)]],
            )

    def test_preserves_views_into_parameters(self, rng):
        """Layers keep references to their grad arrays; the reducer must
        neither replace nor write them."""
        cluster = SimCluster(2, backend="ccl")
        reducer = DistributedDataParallelReducer(cluster)
        ranks = [_rank_params([np.full(4, v, np.float32)]) for v in (1.0, 2.0)]
        alias_a = ranks[0][0].grad
        ends = [BucketSlice.of(params) for params in ranks]
        summed = tree_sum([reducer.pack_grads(r, end) for r, end in enumerate(ends)])
        for r, end in enumerate(ends):
            reducer.unpack_grads(r, end, summed)
        np.testing.assert_array_equal(summed[:4], np.full(4, 3.0))
        np.testing.assert_array_equal(alias_a, np.full(4, 1.0))
        assert ranks[0][0].grad is alias_a

    def test_pack_is_the_live_slice_and_unpack_need_not_copy(self, rng):
        """The send buffer is the gradient flat itself, slot padding and
        all; the receive end leaves a rank's own gradients alone for a
        dense step that reads the sum where it is."""
        cluster = SimCluster(2, backend="ccl")
        reducer = DistributedDataParallelReducer(cluster)
        params = _rank_params([np.ones((3, 5), np.float32), np.ones(3, np.float32)])
        slab, both = params[0].slab, BucketSlice.of(params)
        flat = reducer.pack_grads(0, both)
        assert flat.base is not None and np.shares_memory(flat, slab.grads)
        assert flat.shape == (slab.size,) == (32,) and flat.sum() == 18
        packed = cluster.clocks[0].now
        reducer.unpack_grads(0, both, np.full(32, 7.0, np.float32))
        assert slab.grads.sum() == 18
        assert cluster.clocks[0].now == 2 * packed > 0  # the same charge again

    def test_charges_price_the_payload_not_the_padded_slice(self):
        cluster = SimCluster(2, backend="ccl")
        reducer = DistributedDataParallelReducer(cluster)
        params = _rank_params([np.ones((3, 5), np.float32), np.ones(3, np.float32)])
        reducer.pack_grads(0, BucketSlice.of(params))
        reducer.charge_framework_copy(1, 18 * 4.0)
        assert cluster.clocks[0].now == cluster.clocks[1].now > 0

    def test_a_bucket_with_an_unpending_gradient_raises(self):
        """A slot nobody wrote this step still holds the last step's
        gradient: summing it must be loud, not silent."""
        reducer = DistributedDataParallelReducer(SimCluster(2, backend="ccl"))
        params = _rank_params([np.ones(4, np.float32), np.ones(2, np.float32)])
        end = BucketSlice.of(params)
        params[1].zero_grad()
        with pytest.raises(RuntimeError, match="bucket 3: no gradient pending"):
            reducer.pack_grads(0, end, index=3)

    def test_a_bucket_is_a_run_of_slots_of_one_slab(self):
        params = _rank_params([np.ones(4, np.float32), np.ones(2, np.float32)])
        for bad in (params[:1] + params[:1], params[::-1], []):
            with pytest.raises(ValueError):
                BucketSlice.of(bad)
        with pytest.raises(ValueError, match="DenseSlab"):
            BucketSlice.of([Parameter(np.zeros(2, np.float32))])


class TestIssueTimed:
    def test_charges_framework_and_issues(self):
        cluster = SimCluster(4, backend="ccl", blocking=True)
        reducer = DistributedDataParallelReducer(cluster)
        reducer.issue_timed(10e6)
        p = cluster.profilers[0]
        assert p.get("comm.allreduce.framework") > 0
        assert p.get("comm.allreduce.wait") > 0

    def test_cost_scales_with_bytes(self):
        def total(nbytes):
            cluster = SimCluster(4, backend="ccl", blocking=True)
            DistributedDataParallelReducer(cluster).issue_timed(nbytes)
            return cluster.profilers[0].total("comm")

        assert total(100e6) > 5 * total(10e6)


SHAPES = [(13, 64), (64, 64), (64, 32), (32, 8), (8, 1)]


def _mlp_params(shapes):
    """``[weight, bias]`` per layer, ascending, gradients pending -- an
    MLP's ``parameters()`` as a model's dense slab lays them out."""
    grads = []
    for fi, fo in shapes:
        grads += [np.ones((fo, fi), np.float32), np.ones(fo, np.float32)]
    return _rank_params(grads)


class TestGradientBucketer:
    def test_partitions_layers_in_reverse_order(self):
        b = GradientBucketer(SHAPES, cap_bytes=20_000)
        ranges = b.buckets
        # Issue order is last-layer-first; ranges tile [0, n) exactly.
        assert ranges[0][1] == len(SHAPES)
        assert ranges[-1][0] == 0
        for (lo, hi), (nlo, nhi) in zip(ranges[1:], ranges[:-1]):
            assert hi == nlo
        assert all(hi > lo for lo, hi in ranges)

    def test_cap_respected_unless_single_layer(self):
        cap = 20_000
        b = GradientBucketer(SHAPES, cap_bytes=cap)
        for k in range(len(b)):
            lo, hi = b.buckets[k]
            if hi - lo > 1:
                assert b.nbytes(k) <= cap

    def test_byte_totals(self):
        b = GradientBucketer(SHAPES, cap_bytes=20_000)
        assert sum(b.nbytes(k) for k in range(len(b))) == sum(
            GradientBucketer.layer_bytes(s) for s in SHAPES
        )

    def test_huge_cap_gives_one_bucket(self):
        b = GradientBucketer(SHAPES, cap_bytes=1 << 30)
        assert len(b) == 1
        assert b.buckets == [(0, len(SHAPES))]

    def test_tiny_cap_gives_one_bucket_per_layer(self):
        b = GradientBucketer(SHAPES, cap_bytes=1.0)
        assert len(b) == len(SHAPES)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            GradientBucketer([], cap_bytes=1024)
        with pytest.raises(ValueError):
            GradientBucketer(SHAPES, cap_bytes=0)


class TestBucketedChargeParity:
    """The analytic bucketed schedule (``parallel.timing.model_iteration``:
    a framework-copy charge + transfer issue per bucket, a second copy
    charge at each wait) and the functional per-bucket
    pack/issue/wait/unpack path charge the same framework + transfer
    time -- so scaling curves computed analytically stay honest about
    what the functional trainer would pay."""

    @pytest.mark.parametrize("cap", [4_000, 20_000, 1 << 30])
    def test_totals_match(self, cap):
        r = 4
        bucketer = GradientBucketer(SHAPES, cap_bytes=cap)

        functional = SimCluster(r, backend="ccl", blocking=True)
        fred = DistributedDataParallelReducer(functional)
        slices = [bucketer.slices(_mlp_params(SHAPES)) for _ in range(r)]
        unpacks = []
        for k in range(len(bucketer)):
            ends = [slices[rank][k] for rank in range(r)]
            flats = [fred.pack_grads(rank, ends[rank], index=k) for rank in range(r)]
            fred.issue_transfer(bucketer.nbytes(k))  # blocking cluster: waits inline
            unpacks.append((ends, tree_sum(flats)))
        for rank in range(r):  # the _updates tail: unpack at first use
            for k, (ends, summed) in enumerate(unpacks):
                fred.unpack_grads(rank, ends[rank], summed, index=k)

        analytic = SimCluster(r, backend="ccl", blocking=True)
        ared = DistributedDataParallelReducer(analytic)
        handles = []
        sizes = [bucketer.nbytes(k) for k in range(len(bucketer))]
        for nb in sizes:
            for rank in range(r):
                ared.charge_framework_copy(rank, nb)
            handles.append(ared.issue_transfer(nb))
        for rank in range(r):
            for handle, nb in zip(handles, sizes):
                handle.wait(rank)
                ared.charge_framework_copy(rank, nb)

        for rank in range(r):
            fp, ap = functional.profilers[rank], analytic.profilers[rank]
            assert fp.get("comm.allreduce.framework") == pytest.approx(
                ap.get("comm.allreduce.framework"), rel=1e-9
            )
            assert fp.get("comm.allreduce.wait") == pytest.approx(
                ap.get("comm.allreduce.wait"), rel=1e-9
            )
            assert functional.clocks[rank].now == pytest.approx(
                analytic.clocks[rank].now, rel=1e-9
            )
