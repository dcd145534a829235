"""Update strategies (Alg. 3/4): all four apply identical arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import EmbeddingBag, SparseGrad, SplitEmbeddingBag
from repro.core.optim import SGD, SparseAdagrad
from repro.core.update import (
    AtomicXchgUpdate,
    FusedBackwardUpdate,
    RaceFreeUpdate,
    ReferenceUpdate,
    RTMUpdate,
    make_strategy,
)
from repro.train.registry import UPDATE_STRATEGIES

ALL_NAMES = UPDATE_STRATEGIES.names()


def make_grad(rng, rows, nnz, dim=4):
    return SparseGrad(
        rng.integers(0, rows, size=nnz, dtype=np.int64),
        rng.standard_normal((nnz, dim)).astype(np.float32),
    )


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEquivalence:
    def test_matches_direct_scatter_add(self, name, rng):
        rows, dim = 30, 4
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        grad = make_grad(rng, rows, 50, dim)
        lr = 0.05
        table = EmbeddingBag(rows, dim, weight=w0.copy())
        make_strategy(name, threads=7).apply(table, grad, lr)
        ref = w0.copy()
        np.add.at(ref, grad.indices, -np.float32(lr) * grad.values)
        np.testing.assert_allclose(table.weight, ref, rtol=1e-6, atol=1e-7)

    def test_duplicates_accumulate(self, name, rng):
        table = EmbeddingBag(4, 2, weight=np.zeros((4, 2), np.float32))
        grad = SparseGrad(
            np.array([1, 1, 1]), np.ones((3, 2), dtype=np.float32)
        )
        make_strategy(name, threads=3).apply(table, grad, lr=1.0)
        np.testing.assert_array_equal(table.weight[1], [-3.0, -3.0])
        assert not table.weight[[0, 2, 3]].any()

    def test_works_on_split_storage(self, name, rng):
        rows, dim = 16, 4
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        table = SplitEmbeddingBag(rows, dim, weight=w0.copy())
        grad = make_grad(rng, rows, 20, dim)
        make_strategy(name, threads=4).apply(table, grad, lr=0.1)
        ref = w0.copy()
        np.add.at(ref, grad.indices, -np.float32(0.1) * grad.values)
        np.testing.assert_allclose(table.master_weight(), ref, rtol=1e-6, atol=1e-7)


@given(
    rows=st.integers(1, 60),
    nnz=st.integers(0, 80),
    threads=st.integers(1, 16),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_racefree_equals_atomic_for_any_partition(rows, nnz, threads, seed):
    """Property: Alg. 4's row partitioning never changes the result."""
    rng = np.random.default_rng(seed)
    dim = 3
    w0 = rng.standard_normal((rows, dim)).astype(np.float32)
    grad = SparseGrad(
        rng.integers(0, rows, size=nnz, dtype=np.int64),
        rng.standard_normal((nnz, dim)).astype(np.float32),
    )
    a = EmbeddingBag(rows, dim, weight=w0.copy())
    b = EmbeddingBag(rows, dim, weight=w0.copy())
    AtomicXchgUpdate().apply(a, grad, 0.01)
    RaceFreeUpdate(threads).apply(b, grad, 0.01)
    np.testing.assert_allclose(a.weight, b.weight, rtol=1e-6, atol=1e-7)


class TestRaceFreeObservability:
    def test_thread_counts_cover_all_updates(self, rng):
        table = EmbeddingBag(40, 4, rng=rng)
        grad = make_grad(rng, 40, 100)
        strat = RaceFreeUpdate(threads=6)
        strat.apply(table, grad, 0.1)
        assert strat.last_thread_counts is not None
        assert strat.last_thread_counts.sum() == 100

    def test_counts_respect_row_ranges(self, rng):
        table = EmbeddingBag(10, 2, rng=rng)
        # all indices in the first half -> threads owning the second half idle
        grad = SparseGrad(np.zeros(5, dtype=np.int64), np.ones((5, 2), np.float32))
        strat = RaceFreeUpdate(threads=2)
        strat.apply(table, grad, 0.1)
        assert strat.last_thread_counts.tolist() == [5, 0]

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            RaceFreeUpdate(0)

    def test_counts_are_computed_on_first_read_only(self, rng, monkeypatch):
        from repro.core import update

        calls = []
        real = update.bucket_by_row_ranges
        monkeypatch.setattr(
            update, "bucket_by_row_ranges", lambda *a: calls.append(a) or real(*a)
        )
        table = EmbeddingBag(40, 4, rng=rng)
        dy = rng.standard_normal((6, 4)).astype(np.float32)
        indices = rng.integers(0, 40, size=18)
        offsets = np.arange(0, 19, 3)
        for strat in (RaceFreeUpdate(threads=6), FusedBackwardUpdate(threads=6)):
            assert strat.last_thread_counts is None
            for _ in range(3):
                strat.apply(table, make_grad(rng, 40, 100), 0.1)
            if isinstance(strat, FusedBackwardUpdate):
                strat.apply_fused(table, dy, indices, offsets, 0.1)
            assert calls == []  # no step pays for the counts ...
            want = 18 if isinstance(strat, FusedBackwardUpdate) else 100
            assert strat.last_thread_counts.sum() == want  # ... the reader does, once
            assert strat.last_thread_counts.sum() == want
            assert len(calls) == 1
            calls.clear()

    @pytest.mark.parametrize("bad", [-1, 40, 1 << 40])
    @pytest.mark.parametrize("cls", [RaceFreeUpdate, FusedBackwardUpdate])
    def test_hand_built_gradient_out_of_range_is_loud(self, rng, cls, bad):
        """A negative id must not wrap through fancy indexing, one past
        the table must not clip onto its last row."""
        table = EmbeddingBag(40, 4, rng=rng)
        before = table.weight.copy()
        grad = SparseGrad(np.array([3, bad, 5]), np.ones((3, 4), np.float32))
        with pytest.raises(IndexError):
            cls(threads=4).apply(table, grad, 0.1)
        np.testing.assert_array_equal(table.weight, before)


@pytest.mark.usefixtures("kernel_tier")
@pytest.mark.parametrize("step", ["reference", "atomic", "rtm", "sparse-adagrad"])
def test_a_negative_id_raises_instead_of_wrapping(step):
    """A 4 x 2 table holding ``arange(8)`` and one delta for id -1 at lr
    1: the materialising steps must refuse it before the first write,
    like the fused ones, not add it to the last row."""
    w0 = np.arange(8, dtype=np.float32).reshape(4, 2)
    table = EmbeddingBag(4, 2, weight=w0)
    opt = SparseAdagrad(1.0) if step == "sparse-adagrad" else SGD(1.0, make_strategy(step))
    with pytest.raises(IndexError):
        opt.step_sparse(table, SparseGrad(np.array([-1]), np.ones((1, 2), np.float32)))
    np.testing.assert_array_equal(table.weight, w0)


class TestFactory:
    def test_cost_keys_are_distinct(self):
        keys = {make_strategy(n).cost_key for n in ALL_NAMES}
        assert keys == set(ALL_NAMES)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown update strategy"):
            make_strategy("lockfree")

    def test_fused_uses_threads(self):
        s = make_strategy("fused", threads=5)
        assert isinstance(s, FusedBackwardUpdate)
        assert s.threads == 5

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("reference", ReferenceUpdate),
            ("atomic", AtomicXchgUpdate),
            ("rtm", RTMUpdate),
            ("racefree", RaceFreeUpdate),
        ],
    )
    def test_types(self, name, cls):
        assert isinstance(make_strategy(name), cls)
