"""Bit-identity of every pool-sharded kernel against its sequential run.

The contract of ISSUE 4: for each parallelized path, ``workers > 1``
produces *bitwise* the ``workers = 1`` result -- in FP32 and Split-BF16.
Workers own disjoint output rows from the Alg. 4/5 static partitions and
fold each segment/bag/block identically, so no summation order changes.
Sizes here are chosen above the kernels' parallel thresholds so the
sharded paths actually execute.
"""

import numpy as np
import pytest

from repro.core.embedding import SplitEmbeddingBag
from repro.exec.pool import WorkerPool
from repro.kernels import segment as seg
from repro.kernels.blocked import BlockedLayout, block_activation, block_weight
from repro.kernels.gemm import FlopCounter, blocked_matmul

WORKER_COUNTS = (2, 3, 4)


@pytest.fixture(scope="module")
def pools():
    created = {w: WorkerPool(w) for w in WORKER_COUNTS}
    yield created
    for pool in created.values():
        pool.shutdown()


@pytest.fixture(autouse=True)
def force_parallel_thresholds(monkeypatch):
    """Drop the engagement thresholds so every sharded path actually
    executes at test sizes (defaults only engage on multi-MB payloads)."""
    from repro.kernels import gemm

    monkeypatch.setattr(seg, "PARALLEL_MIN_SEGMENTS", 4)
    monkeypatch.setattr(seg, "PARALLEL_MIN_ELEMS", 64)
    monkeypatch.setattr(gemm, "GEMM_PARALLEL_MIN_ELEMS", 64)


def ragged_problem(rng, n_bags=600, dim=16, max_len=7):
    lengths = rng.integers(0, max_len, size=n_bags)
    offsets = np.zeros(n_bags + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    rows = rng.standard_normal((int(offsets[-1]), dim)).astype(np.float32)
    return rows, offsets


def duplicate_heavy_indices(rng, nnz=4000, n_rows=300):
    # Heavy duplication exercises long segments (the fold order matters).
    return rng.integers(0, n_rows, size=nnz, dtype=np.int64)


class TestSegmentKernelsParallel:
    def test_segment_sum_ragged(self, rng, pools):
        rows, offsets = ragged_problem(rng)
        want = seg.segment_sum_ragged(rows, offsets, pool=WorkerPool(1))
        np.testing.assert_array_equal(
            want, seg.reference.segment_sum(rows, offsets)
        )
        for w, pool in pools.items():
            got = seg.segment_sum_ragged(rows, offsets, pool=pool)
            assert np.array_equal(got, want), f"workers={w}"

    def test_segment_sum_equal_length_bags(self, rng, pools):
        # The sequential fast path reshapes; shards gather. Same bits.
        dim, n_bags, length = 16, 512, 4
        rows = rng.standard_normal((n_bags * length, dim)).astype(np.float32)
        offsets = np.arange(0, n_bags * length + 1, length, dtype=np.int64)
        want = seg.segment_sum_ragged(rows, offsets, pool=WorkerPool(1))
        for w, pool in pools.items():
            got = seg.segment_sum_ragged(rows, offsets, pool=pool)
            assert np.array_equal(got, want), f"workers={w}"

    def test_aggregate_duplicates(self, rng, pools):
        indices = duplicate_heavy_indices(rng)
        values = rng.standard_normal((indices.size, 16)).astype(np.float32)
        uniq_want, agg_want = seg.reference.aggregate_duplicates(indices, values)
        for w, pool in pools.items():
            plan = seg.plan_segments(indices)
            sums = np.zeros((plan.uniq.shape[0], 16), dtype=np.float32)
            seg._fold(values, plan.order, plan.starts, plan.lengths, sums, pool=pool)
            assert np.array_equal(plan.uniq, uniq_want), f"workers={w}"
            assert np.array_equal(sums, agg_want), f"workers={w}"

    def test_scatter_add_exact(self, rng, pools):
        indices = duplicate_heavy_indices(rng)
        deltas = rng.standard_normal((indices.size, 16)).astype(np.float32)
        base = rng.standard_normal((300, 16)).astype(np.float32)
        want = base.copy()
        np.add.at(want, indices, deltas)
        for w, pool in pools.items():
            weight = base.copy()
            plan = seg.plan_segments(indices)
            seg._fold(
                deltas, plan.order, plan.starts, plan.lengths, weight, plan.uniq, pool=pool
            )
            assert np.array_equal(weight, want), f"workers={w}"

    def test_one_row_holding_most_of_the_payload(self, rng, pools):
        """Payload-balanced ranges never split a segment: a row with more
        contributions than a worker's share leaves some ranges empty."""
        indices = rng.permutation(
            np.concatenate([np.full(3000, 7), rng.integers(0, 300, size=1000)])
        ).astype(np.int64)
        deltas = rng.standard_normal((indices.size, 16)).astype(np.float32)
        base = rng.standard_normal((300, 16)).astype(np.float32)
        want = base.copy()
        np.add.at(want, indices, deltas)
        plan = seg.plan_segments(indices)
        for w, pool in pools.items():
            weight = base.copy()
            seg._fold(
                deltas, plan.order, plan.starts, plan.lengths, weight, plan.uniq, pool=pool
            )
            assert np.array_equal(weight, want), f"workers={w}"

    @pytest.mark.parametrize("blocks", [None, (128, 1024)])
    def test_runs_around_the_head_and_block_boundaries(self, rng, pools, monkeypatch, blocks):
        """Scatter, bag-scatter and aggregate at widths 1 and 2 (and 3,
        4): every range orders its own segments by length and cuts its
        own blocks, and still folds each run as the sequential kernel."""
        if blocks is not None:
            monkeypatch.setattr(seg, "_SEGMENT_BLOCK_ELEMS", blocks[0])
            monkeypatch.setattr(seg, "_BLOCK_ELEMS", blocks[1])
        head = seg._HEAD
        lengths = np.resize(
            np.array([1, 2, head - 1, head, head + 1, head + 2, 3 * head + 7]), 60
        )
        idx = rng.permutation(np.repeat(rng.permutation(80)[:60], lengths)).astype(np.int64)
        bag_ids = np.sort(rng.integers(0, 11, size=idx.size))
        bag_grads = rng.standard_normal((11, 16)).astype(np.float32)
        deltas = bag_grads[bag_ids]
        base = rng.standard_normal((80, 16)).astype(np.float32)
        want = base.copy()
        np.add.at(want, idx, deltas)
        uniq, inverse = np.unique(idx, return_inverse=True)
        want_sums = np.zeros((uniq.size, 16), dtype=np.float32)
        np.add.at(want_sums, inverse, deltas)
        plan = seg.plan_segments(idx)
        for w, pool in {1: WorkerPool(1), **pools}.items():
            scattered, bag_scattered = base.copy(), base.copy()
            sums = np.zeros_like(want_sums)
            seg._fold(deltas, plan.order, plan.starts, plan.lengths, scattered, plan.uniq, pool=pool)
            seg._fold(
                bag_grads, bag_ids[plan.order], plan.starts, plan.lengths,
                bag_scattered, plan.uniq, pool=pool,
            )
            seg._fold(deltas, plan.order, plan.starts, plan.lengths, sums, pool=pool)
            assert np.array_equal(scattered, want), f"workers={w}"
            assert np.array_equal(bag_scattered, want), f"workers={w}"
            assert np.array_equal(sums, want_sums), f"workers={w}"

    def test_scatter_add_via_global_pool(self, rng):
        """The public entry points pick the pool up from the process-wide
        configuration (no explicit pool plumbing at call sites)."""
        from repro.exec.pool import pooled

        indices = duplicate_heavy_indices(rng)
        deltas = rng.standard_normal((indices.size, 16)).astype(np.float32)
        base = rng.standard_normal((300, 16)).astype(np.float32)
        want = base.copy()
        seg.scatter_add_exact(want, indices, deltas)
        with pooled(4):
            got = base.copy()
            seg.scatter_add_exact(got, indices, deltas)
        assert np.array_equal(got, want)

    def test_split_bf16_scatter_add(self, rng):
        """Split-BF16 update: parallel aggregation + sharded combine/split
        rewrite bitwise the sequential table halves."""
        from repro.exec.pool import pooled

        indices = duplicate_heavy_indices(rng, nnz=5000, n_rows=400)
        deltas = rng.standard_normal((indices.size, 16)).astype(np.float32)
        init = rng.standard_normal((400, 16)).astype(np.float32)
        sequential = SplitEmbeddingBag(400, 16, weight=init)
        sequential.scatter_add_rows(indices, deltas)
        for w in WORKER_COUNTS:
            with pooled(w):
                table = SplitEmbeddingBag(400, 16, weight=init)
                table.scatter_add_rows(indices, deltas)
            assert np.array_equal(table.hi, sequential.hi), f"workers={w}"
            assert np.array_equal(table.lo, sequential.lo), f"workers={w}"


class TestBlockedMatmulParallel:
    @staticmethod
    def problem(rng, n=256, c=128, k=192):
        layout = BlockedLayout(bn=32, bc=32, bk=32)
        x = rng.standard_normal((n, c)).astype(np.float32)
        w = rng.standard_normal((k, c)).astype(np.float32)
        x4 = block_activation(x, layout.bn, layout.bc)
        w4 = block_weight(w, layout.bc, layout.bk)
        return x4, w4, layout

    def test_fast_path_row_sharding(self, rng, pools):
        x4, w4, layout = self.problem(rng)
        want = blocked_matmul(x4, w4, layout, pool=WorkerPool(1))
        for w, pool in pools.items():
            got = blocked_matmul(x4, w4, layout, pool=pool)
            assert np.array_equal(got, want), f"workers={w}"
            assert got.flags["C_CONTIGUOUS"]

    def test_observable_path_blocks_and_counter(self, rng, pools):
        x4, w4, layout = self.problem(rng)
        counter = FlopCounter()
        want = blocked_matmul(
            x4, w4, layout, threads=4, counter=counter, pool=WorkerPool(1)
        )
        for w, pool in pools.items():
            sub = FlopCounter()
            got = blocked_matmul(x4, w4, layout, threads=4, counter=sub, pool=pool)
            assert np.array_equal(got, want), f"workers={w}"
            assert sub.flops == counter.flops
            assert sub.bytes_moved == counter.bytes_moved
            assert sub.calls == counter.calls

    def test_mlp_through_global_pool(self, rng):
        """A blocked-engine MLP forward/backward under a wide global pool
        stays bitwise the sequential run (weights, grads, outputs)."""
        from repro.core.mlp import MLP
        from repro.exec.pool import pooled

        def run():
            g = np.random.default_rng(11)
            mlp = MLP(64, (128, 32), rng=g, engine="blocked")
            x = np.random.default_rng(5).standard_normal((128, 64)).astype(np.float32)
            y = mlp.forward(x)
            dx = mlp.backward(np.ones_like(y))
            return y.copy(), dx.copy(), [p.grad.copy() for p in mlp.parameters()]

        y1, dx1, grads1 = run()
        with pooled(4):
            y4, dx4, grads4 = run()
        assert np.array_equal(y1, y4)
        assert np.array_equal(dx1, dx4)
        for a, b in zip(grads1, grads4):
            assert np.array_equal(a, b)
