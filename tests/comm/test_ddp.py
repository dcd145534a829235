"""DDP gradient reducer: in-place sums + framework cost accounting."""

import numpy as np
import pytest

from repro.comm.collectives import tree_sum
from repro.comm.ddp import DistributedDataParallelReducer, GradientBucketer
from repro.parallel.cluster import SimCluster


def _allreduce_grads(reducer, grads):
    """One bucket of ``DistributedDLRM.train_step``'s production path:
    per-rank pack, canonical-tree fold, transfer issue, then per-rank
    wait + in-place unpack."""
    flats = [reducer.pack_grads(r, g) for r, g in enumerate(grads)]
    summed = tree_sum(flats)
    handle = reducer.issue_transfer(summed.nbytes)
    for r, g in enumerate(grads):
        handle.wait(r)
        reducer.unpack_grads(r, g, summed)


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
        _allreduce_grads(reducer, grads)
        for r in range(3):
            np.testing.assert_allclose(grads[r][0], want0, rtol=1e-5)
            np.testing.assert_allclose(grads[r][1], want1, rtol=1e-5)

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
        update those arrays, not replace them."""
        cluster = SimCluster(2, backend="ccl")
        reducer = DistributedDataParallelReducer(cluster)
        a = np.ones(4, np.float32)
        b = np.full(4, 2.0, np.float32)
        alias_a = a
        _allreduce_grads(reducer, [[a], [b]])
        np.testing.assert_array_equal(alias_a, np.full(4, 3.0))


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


def _bucket_grads(shapes, start, stop):
    """[weight.grad, bias.grad] per layer, descending layer index --
    the exact order ``DistributedDLRM._bucket_grads`` packs."""
    out = []
    for i in reversed(range(start, stop)):
        fi, fo = shapes[i]
        out.append(np.ones((fi, fo), np.float32))
        out.append(np.ones(fo, np.float32))
    return out


class TestGradientBucketer:
    def test_partitions_layers_in_reverse_order(self):
        b = GradientBucketer(SHAPES, cap_bytes=20_000)
        ranges = [b.layer_range(k) for k in range(len(b))]
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
            lo, hi = b.layer_range(k)
            if hi - lo > 1:
                assert b.nbytes(k) <= cap

    def test_byte_totals(self):
        b = GradientBucketer(SHAPES, cap_bytes=20_000)
        assert sum(b.sizes()) == b.total_bytes()
        assert b.total_bytes() == sum(
            GradientBucketer.layer_bytes(s) for s in SHAPES
        )

    def test_huge_cap_gives_one_bucket(self):
        b = GradientBucketer(SHAPES, cap_bytes=1 << 30)
        assert len(b) == 1
        assert b.layer_range(0) == (0, len(SHAPES))

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
        unpacks = []
        for k in range(len(bucketer)):
            lo, hi = bucketer.layer_range(k)
            flats = [
                fred.pack_grads(rank, _bucket_grads(SHAPES, lo, hi), bucket=k)
                for rank in range(r)
            ]
            fred.issue_transfer(bucketer.nbytes(k))  # blocking cluster: waits inline
            unpacks.append((lo, hi, flats))
        for rank in range(r):  # the _updates tail: unpack at first use
            for k, (lo, hi, flats) in enumerate(unpacks):
                fred.unpack_grads(
                    rank, _bucket_grads(SHAPES, lo, hi), flats[rank], bucket=k
                )

        analytic = SimCluster(r, backend="ccl", blocking=True)
        ared = DistributedDataParallelReducer(analytic)
        handles = []
        for nb in bucketer.sizes():
            for rank in range(r):
                ared.charge_framework_copy(rank, nb)
            handles.append(ared.issue_transfer(nb))
        for rank in range(r):
            for handle, nb in zip(handles, bucketer.sizes()):
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
