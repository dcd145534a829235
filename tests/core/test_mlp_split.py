"""The MLP's large GEMMs split between the caller and the helper thread.

A large ``reference`` product with a home is computed as two static row
blocks meeting at a multiple of 64 rows: the lower block on the calling
thread, the upper on the first helper (:func:`repro.exec.pool.fork_join`).
These tests hold the split to the whole ``np.matmul``'s bits at every
MLP shape of the benchmark's workloads, and show where it declines.
With one allowed CPU there is no helper, every product runs whole, and
the block-by-block bit checks still run.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import mlp
from repro.core.mlp import SPLIT_MACS, SPLIT_ROWS, FullyConnected
from repro.exec import pool
from repro.exec.mp import WORKER_ENV
from repro.exec.pool import WorkerPool, helpers

from tests.conftest import pooled

HELPER = bool(helpers())

#: (in, out) of every MLP layer in benchmarks/suite/workloads/: train_mlp
#: and train_bf16, train_dist4, serve_infer, train_emb(_tiered).
SHAPES = sorted({
    (13, 512), (512, 256), (256, 128), (138, 1024), (1024, 1024), (1024, 512), (256, 1),
    (256, 64), (100, 1024), (479, 1024),
    (13, 64), (64, 64), (100, 128), (128, 64), (64, 1),
})
ROWS = (96, 128, 142, 256, 384, 512)
PASSES = ("fwd", "bwd_d", "bwd_w")


def operands(rng, c: int, k: int, n: int, which: str):
    """``(a, b)`` of one pass of an ``(n, c) -> (n, k)`` layer: FWD
    ``x @ W.T``, BWD_D ``dz @ W``, BWD_W ``dz.T @ x``."""
    x = rng.standard_normal((n, c)).astype(np.float32)
    w = rng.standard_normal((k, c)).astype(np.float32)
    dz = rng.standard_normal((n, k)).astype(np.float32)
    return {"fwd": (x, w.T), "bwd_d": (dz, w), "bwd_w": (dz.T, x)}[which]


def splits(a, b) -> bool:
    return a.shape[0] >= SPLIT_ROWS and a.shape[0] * a.shape[1] * b.shape[1] >= SPLIT_MACS


def split_row(rows: int) -> int:
    """Where the caller's block ends: the multiple of 64 nearest rows / 2."""
    return 64 * ((rows + 64) // 128)


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32)


@pytest.fixture
def forks(monkeypatch):
    """What each ``fork_join`` a layer called returned (True: it split),
    over an empty record of checked geometries."""
    got, real = [], mlp.fork_join
    monkeypatch.setattr(mlp, "fork_join", lambda near, far: got.append(real(near, far)) or got[-1])
    monkeypatch.setattr(mlp, "_agrees", {})
    return got


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("which", PASSES)
@pytest.mark.parametrize("c,k", SHAPES)
def test_the_split_is_bitwise_the_whole_call(rng, forks, c, k, which, n):
    a, b = operands(rng, c, k, n, which)
    want = np.matmul(a, b)
    fc = FullyConnected(1, 1, rng=rng)
    out = np.full(want.shape, np.nan, np.float32)
    assert fc._product(a, b, out) is out
    np.testing.assert_array_equal(bits(out), bits(want))
    if not splits(a, b):
        assert forks == []
        return
    # The two blocks one after the other, on any host: the whole call's bits.
    s, blocks = split_row(a.shape[0]), np.full(want.shape, np.nan, np.float32)
    np.matmul(a[:s], b, out=blocks[:s])
    np.matmul(a[s:], b, out=blocks[s:])
    np.testing.assert_array_equal(bits(blocks), bits(want))
    assert forks == [HELPER]
    assert list(mlp._agrees.values()) == ([True] if HELPER else [])


@pytest.mark.parametrize("which", ["fwd", "bwd_d"])
def test_every_row_count_of_a_geometry_splits_alike(rng, which):
    """A geometry is checked once for all the minibatch row counts it
    covers (the serve engine's micro-batches vary in rows): each of them
    splits into the whole call's bits."""
    a, b = operands(rng, 479, 1024, 320, which)
    for rows in range(SPLIT_ROWS, a.shape[0] + 1):
        part = a[:rows]
        want, s = np.matmul(part, b), split_row(rows)
        got = np.concatenate([np.matmul(part[:s], b), np.matmul(part[s:], b)])
        np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"{rows} rows")


class TestTheProduct:
    @staticmethod
    def big(rng, n: int = 512, **kwargs):
        fc = FullyConnected(1024, 1024, rng=rng, **kwargs)
        return fc, rng.standard_normal((n, 1024)).astype(np.float32)

    @staticmethod
    def fwd(fc, x) -> np.ndarray:
        out = np.full((x.shape[0], fc.out_features), np.nan, np.float32)
        return fc._product(x, fc.weight.value.T, out)

    @pytest.mark.parametrize("n,blocks", [(512, [256, 256]), (142, [64, 78]), (191, [64, 127])])
    def test_splits_a_large_product_where_its_blocks_meet_at_64_rows(self, rng, forks, n, blocks):
        fc, x = self.big(rng, n)
        rows, product = [], fc._dot
        fc._dot = lambda a, b, out=None: (rows.append(a.shape[0]), product(a, b, out=out))[1]
        np.testing.assert_array_equal(bits(self.fwd(fc, x)), bits(x @ fc.weight.value.T))
        assert forks == [HELPER]
        # The lower block here, the upper on the helper, then the check's whole call.
        assert sorted(rows[:2]) == blocks if HELPER else rows == [n]

    @pytest.mark.parametrize("c,k,n", [(13, 512, 512), (256, 128, 256), (1024, 1024, 96), (256, 1, 512)])
    def test_declines_below_the_size_floor(self, rng, forks, c, k, n):
        fc = FullyConnected(c, k, rng=rng)
        x = rng.standard_normal((n, c)).astype(np.float32)
        np.testing.assert_array_equal(bits(self.fwd(fc, x)), bits(x @ fc.weight.value.T))
        assert forks == []

    def test_declines_inside_a_pool_task(self, rng, forks):
        """On the caller's lane and the helper's alike."""
        fc, x = self.big(rng)
        got = WorkerPool(2).map(lambda _: self.fwd(fc, x).copy(), [0, 1])
        for out in got:
            np.testing.assert_array_equal(bits(out), bits(x @ fc.weight.value.T))
        assert forks == [False, False]

    def test_splits_from_the_caller_at_pool_width_2(self, rng, forks):
        """Between the pool's calls its helpers are idle: the product splits."""
        fc, x = self.big(rng)
        with pooled(2):
            np.testing.assert_array_equal(bits(self.fwd(fc, x)), bits(x @ fc.weight.value.T))
        assert forks == [HELPER]

    def test_declines_with_no_helper(self, rng, forks, monkeypatch):
        monkeypatch.setattr(pool, "helpers", lambda: ())
        fc, x = self.big(rng)
        np.testing.assert_array_equal(bits(self.fwd(fc, x)), bits(x @ fc.weight.value.T))
        assert forks == [False]

    def test_splits_in_a_process_backend_worker_that_has_a_helper(self, rng, forks, monkeypatch):
        monkeypatch.setenv(WORKER_ENV, "1")
        fc, x = self.big(rng)
        np.testing.assert_array_equal(bits(self.fwd(fc, x)), bits(x @ fc.weight.value.T))
        assert forks == [HELPER]

    def test_declines_without_a_home_for_the_product(self, rng, forks):
        """``out=None``: ``infer`` without a buffer and an accumulating dW
        allocate their result, and run whole."""
        fc, x = self.big(rng, activation=None)
        dy = rng.standard_normal((512, 1024)).astype(np.float32)
        want = x @ fc.weight.value.T
        want += fc.bias.value
        np.testing.assert_array_equal(bits(fc.infer(x)), bits(want))
        assert forks == []
        fc.forward(x)  # into the workspace
        fc.backward(dy, input_grad=False)  # the step's first dW, into the gradient storage
        assert forks == [HELPER, HELPER]
        first = fc.weight.grad.copy()
        fc.backward(dy, input_grad=False)
        assert forks == [HELPER, HELPER]
        np.testing.assert_array_equal(bits(fc.weight.grad), bits(first + dy.T @ x))

    def test_declines_on_the_bf16_engine(self, rng, forks):
        fc, x = self.big(rng, engine="bf16")
        want = fc._dot(x, fc.weight.value.T)
        np.testing.assert_array_equal(bits(self.fwd(fc, x)), bits(want))
        assert forks == []

    @pytest.mark.skipif(not HELPER, reason="one allowed CPU: no helper, no split")
    def test_halves_that_disagree_make_the_shape_run_whole(self, rng, forks):
        fc, x = self.big(rng)
        want = x @ fc.weight.value.T

        def skewed(a, b, out=None):
            """The product, off by one ulp in a block's first element."""
            got = np.matmul(a, b, out=out)
            if a.shape[0] != x.shape[0]:
                got[0, 0] = np.nextafter(got[0, 0], np.inf)
            return got

        fc._dot = skewed
        for _ in range(2):
            np.testing.assert_array_equal(bits(self.fwd(fc, x)), bits(want))
        assert forks == [True] and list(mlp._agrees.values()) == [False]

    def test_the_check_allocates_nothing(self, rng, forks):
        fc, x = self.big(rng)
        out = np.empty((512, 1024), np.float32)
        w = fc.weight.value.T
        tracemalloc.start()
        try:
            fc._product(x, w, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forks == [HELPER] and peak < out.nbytes // 32
