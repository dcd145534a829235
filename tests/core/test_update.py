"""Update strategies (Alg. 3/4): all five apply identical arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import EmbeddingBag, SparseGrad, SplitEmbeddingBag
from repro.core.optim import SGD, SparseAdagrad
from repro.core.update import FusedBackwardUpdate, UpdateStrategy, make_strategy
from repro.train.registry import UPDATE_STRATEGIES
from tests.conftest import bag_of, racefree_update_oracle

ALL_NAMES = sorted(UPDATE_STRATEGIES)


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
        table = bag_of(w0)
        make_strategy(name).apply(table, grad, lr)
        ref = w0.copy()
        np.add.at(ref, grad.indices, -np.float32(lr) * grad.values)
        np.testing.assert_allclose(table.weight, ref, rtol=1e-6, atol=1e-7)

    def test_duplicates_accumulate(self, name, rng):
        table = bag_of(np.zeros((4, 2), np.float32))
        grad = SparseGrad(
            np.array([1, 1, 1]), np.ones((3, 2), dtype=np.float32)
        )
        make_strategy(name).apply(table, grad, lr=1.0)
        np.testing.assert_array_equal(table.weight[1], [-3.0, -3.0])
        assert not table.weight[[0, 2, 3]].any()

    def test_works_on_split_storage(self, name, rng):
        rows, dim = 16, 4
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        table = bag_of(w0, SplitEmbeddingBag)
        grad = make_grad(rng, rows, 20, dim)
        make_strategy(name).apply(table, grad, lr=0.1)
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
def test_racefree_equals_alg4_for_any_partition(rows, nnz, threads, seed):
    """Property: Alg. 4's row partitioning never changes the result."""
    rng = np.random.default_rng(seed)
    dim = 3
    w0 = rng.standard_normal((rows, dim)).astype(np.float32)
    grad = SparseGrad(
        rng.integers(0, rows, size=nnz, dtype=np.int64),
        rng.standard_normal((nnz, dim)).astype(np.float32),
    )
    a = bag_of(w0)
    b = bag_of(w0)
    make_strategy("racefree").apply(a, grad, 0.01)
    racefree_update_oracle(b, grad, 0.01, threads)
    np.testing.assert_allclose(a.weight, b.weight, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("bad", [-1, 40, 1 << 40])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_hand_built_gradient_out_of_range_is_loud(rng, name, bad):
    """A negative id must not wrap through fancy indexing, one past
    the table must not clip onto its last row."""
    table = EmbeddingBag(40, 4, rng=rng)
    before = table.weight.copy()
    grad = SparseGrad(np.array([3, bad, 5]), np.ones((3, 4), np.float32))
    with pytest.raises(IndexError):
        make_strategy(name).apply(table, grad, 0.1)
    np.testing.assert_array_equal(table.weight, before)


@pytest.mark.usefixtures("kernel_tier")
@pytest.mark.parametrize("step", ["reference", "atomic", "rtm", "sparse-adagrad"])
def test_a_negative_id_raises_instead_of_wrapping(step):
    """A 4 x 2 table holding ``arange(8)`` and one delta for id -1 at lr
    1: the materialising steps must refuse it before the first write,
    like the fused ones, not add it to the last row."""
    w0 = np.arange(8, dtype=np.float32).reshape(4, 2)
    table = bag_of(w0)
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

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("reference", UpdateStrategy),
            ("atomic", UpdateStrategy),
            ("rtm", UpdateStrategy),
            ("racefree", FusedBackwardUpdate),
            ("fused", FusedBackwardUpdate),
        ],
    )
    def test_types(self, name, cls):
        assert type(make_strategy(name)) is cls
