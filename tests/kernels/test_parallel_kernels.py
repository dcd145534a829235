"""Bit-identity of every pool-sharded kernel against its sequential run.

For each parallelized path, ``workers > 1`` produces *bitwise* the
``workers = 1`` result -- in FP32 and Split-BF16.  Workers own disjoint
output rows from the Alg. 4 static partitions and fold each row or bag
identically, so no summation order changes.  The row kernels shard on
the native tier only (the NumPy tier runs whole).  Sizes here are chosen
above the kernels' parallel thresholds so the sharded paths actually
execute.  The MLP's GEMMs do not shard yet; their test pins what a
sharded GEMM must keep.
"""

import numpy as np
import pytest

from repro.core.embedding import SplitEmbeddingBag
from repro.exec.pool import WorkerPool
from repro.kernels import dispatch, native, reference, threads
from repro.kernels.native import build
from tests.conftest import bag_of, pooled

WORKER_COUNTS = (2, 3, 4)

needs_native = pytest.mark.skipif(
    build.library() is None, reason=f"native tier unavailable: {build.load()[1]}"
)


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
    monkeypatch.setattr(threads, "PARALLEL_MIN_SEGMENTS", 4)
    monkeypatch.setattr(threads, "PARALLEL_MIN_ELEMS", 64)


def ragged_problem(rng, n_bags=600, dim=16, max_len=7):
    lengths = rng.integers(0, max_len, size=n_bags)
    offsets = np.zeros(n_bags + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    rows = rng.standard_normal((int(offsets[-1]), dim)).astype(np.float32)
    return rows, offsets


def duplicate_heavy_indices(rng, nnz=4000, n_rows=300):
    # Heavy duplication exercises long runs (the add order matters).
    return rng.integers(0, n_rows, size=nnz, dtype=np.int64)


class TestSegmentKernelsParallel:
    @needs_native
    def test_segment_sum_ragged(self, rng, pools):
        rows, offsets = ragged_problem(rng)
        look = np.arange(rows.shape[0])
        want = native.pool_rows(rows, look, offsets, pool=WorkerPool(1))
        np.testing.assert_array_equal(want, reference.segment_sum(rows, offsets))
        for w, pool in pools.items():
            got = native.pool_rows(rows, look, offsets, pool=pool)
            assert np.array_equal(got, want), f"workers={w}"

    @needs_native
    def test_segment_sum_equal_length_bags(self, rng, pools):
        dim, n_bags, length = 16, 512, 4
        rows = rng.standard_normal((n_bags * length, dim)).astype(np.float32)
        offsets = np.arange(0, n_bags * length + 1, length, dtype=np.int64)
        look = np.arange(rows.shape[0])
        want = native.pool_rows(rows, look, offsets, pool=WorkerPool(1))
        for w, pool in pools.items():
            got = native.pool_rows(rows, look, offsets, pool=pool)
            assert np.array_equal(got, want), f"workers={w}"

    @needs_native
    def test_scatter_add_exact(self, rng, pools):
        indices = duplicate_heavy_indices(rng)
        deltas = rng.standard_normal((indices.size, 16)).astype(np.float32)
        base = rng.standard_normal((300, 16)).astype(np.float32)
        want = base.copy()
        np.add.at(want, indices, deltas)
        for w, pool in pools.items():
            weight = base.copy()
            assert native.scatter_add_exact(weight, indices, deltas, pool=pool)
            assert np.array_equal(weight, want), f"workers={w}"

    @needs_native
    def test_one_row_holding_most_of_the_payload(self, rng, pools):
        """Row ranges with a hot row in one of them: the other ranges
        finish early, and the hot row still has one owner."""
        indices = rng.permutation(
            np.concatenate([np.full(3000, 7), rng.integers(0, 300, size=1000)])
        ).astype(np.int64)
        deltas = rng.standard_normal((indices.size, 16)).astype(np.float32)
        base = rng.standard_normal((300, 16)).astype(np.float32)
        want = base.copy()
        np.add.at(want, indices, deltas)
        for w, pool in pools.items():
            weight = base.copy()
            assert native.scatter_add_exact(weight, indices, deltas, pool=pool)
            assert np.array_equal(weight, want), f"workers={w}"

    def test_scatter_add_via_global_pool(self, rng):
        """The public entry points pick the pool up from the process-wide
        configuration (no explicit pool plumbing at call sites)."""

        indices = duplicate_heavy_indices(rng)
        deltas = rng.standard_normal((indices.size, 16)).astype(np.float32)
        base = rng.standard_normal((300, 16)).astype(np.float32)
        want = base.copy()
        dispatch.scatter_add_exact(want, indices, deltas)
        with pooled(4):
            got = base.copy()
            dispatch.scatter_add_exact(got, indices, deltas)
        assert np.array_equal(got, want)

    def test_split_bf16_scatter_add(self, rng):
        """Split-BF16 update: the runs of one id sharded over the pool
        rewrite bitwise the sequential table halves."""

        indices = duplicate_heavy_indices(rng, nnz=5000, n_rows=400)
        deltas = rng.standard_normal((indices.size, 16)).astype(np.float32)
        init = rng.standard_normal((400, 16)).astype(np.float32)
        sequential = bag_of(init, SplitEmbeddingBag)
        sequential.scatter_add_rows(indices, deltas)
        for w in WORKER_COUNTS:
            with pooled(w):
                table = bag_of(init, SplitEmbeddingBag)
                table.scatter_add_rows(indices, deltas)
            assert np.array_equal(table.hi, sequential.hi), f"workers={w}"
            assert np.array_equal(table.lo, sequential.lo), f"workers={w}"


class TestMLPUnderPool:
    @pytest.mark.parametrize("engine", ["reference", "bf16"])
    def test_mlp_under_a_wide_pool_is_bitwise_its_1_wide_run(self, engine):
        """An MLP forward/backward under ``pooled(4)`` is bitwise its
        1-wide run (outputs, input gradient, weight gradients)."""
        from repro.core.mlp import MLP

        def run():
            g = np.random.default_rng(11)
            mlp = MLP(64, (128, 32), rng=g, engine=engine)
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
