"""One way in: per-lookup values, shared values and the oracle agree.

``scatter_add_exact`` / ``aggregate_duplicates`` and every bag's
``scatter_add_rows`` take the values one row per look-up
(``value_rows=None``) or shared (look-up ``i`` reads
``values[value_rows[i]]``: bag-level gradients).  Naming each look-up's
own row (``arange(n)``) sends the per-lookup values through the shared
gather, so the two entries and the ``np.add.at`` spelling of
:mod:`repro.kernels.reference` must produce the same bits -- including
``E == 1`` (the NumPy tier's fallback), empty input and all-``-0.0``
rows.  The array kernel and the bags' entries run once per kernel tier.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import EmbeddingBag, SplitEmbeddingBag
from repro.kernels import dispatch, reference
from repro.kernels.segment import aggregate_duplicates, scatter_add_exact
from repro.tiering.store import TieredEmbeddingBag
from tests.conftest import TIERED, scatter_add_rows_oracle
from tests.kernels.test_segment import bits, special_values

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf: wanted inputs

case = given(
    rows=st.integers(1, 24),
    nnz=st.sampled_from([0, 1, 7, 40, 300]),  # 300 into <= 24 rows: runs past the fold's head
    dim=st.sampled_from([1, 2, 8]),
    special_share=st.sampled_from([0.0, 0.05, 0.9]),
    negative_zero=st.booleans(),
    seed=st.integers(0, 10_000),
)


def draw(rows, nnz, dim, special_share, negative_zero, seed):
    """(weight, indices, per-lookup deltas, shared deltas, their rows)."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
    shared_rows = rng.integers(0, 5, size=nnz, dtype=np.int64)
    if negative_zero:
        return (
            np.full((rows, dim), -0.0, np.float32), idx,
            np.full((nnz, dim), -0.0, np.float32), np.full((5, dim), -0.0, np.float32),
            shared_rows,
        )
    return (
        special_values(rng, (rows, dim), special_share), idx,
        special_values(rng, (nnz, dim), special_share),
        special_values(rng, (5, dim), special_share), shared_rows,
    )


class TestKernels:
    @pytest.mark.usefixtures("kernel_tier")
    @case
    @settings(max_examples=150, deadline=None, **TIERED)
    def test_scatter_add_exact(self, **kw):
        w0, idx, deltas, shared, shared_rows = draw(**kw)
        want = w0.copy()
        reference.scatter_add(want, idx, deltas)
        for value_rows in (None, np.arange(idx.size)):
            got = w0.copy()
            dispatch.scatter_add_exact(got, idx, deltas, value_rows=value_rows)
            np.testing.assert_array_equal(bits(got), bits(want))
        if kw["negative_zero"]:
            assert np.signbit(want).all()  # -0.0 + -0.0: no +0.0 start crept in
        want = w0.copy()
        reference.scatter_add(want, idx, shared[shared_rows])
        got = w0.copy()
        dispatch.scatter_add_exact(got, idx, shared, value_rows=shared_rows)
        np.testing.assert_array_equal(bits(got), bits(want))

    @case
    @settings(max_examples=150, deadline=None)
    def test_aggregate_duplicates(self, **kw):
        _, idx, deltas, shared, shared_rows = draw(**kw)
        for values, value_rows, expanded in (
            (deltas, None, deltas),
            (deltas, np.arange(idx.size), deltas),
            (shared, shared_rows, shared[shared_rows]),
        ):
            want_uniq, want = reference.aggregate_duplicates(idx, expanded)
            uniq, got = aggregate_duplicates(idx, values, value_rows=value_rows)
            np.testing.assert_array_equal(uniq, want_uniq)
            assert got.shape == want.shape
            np.testing.assert_array_equal(bits(got), bits(want))


@pytest.fixture(scope="module")
def cold_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cold"))


def make_bag(kind, w0, cold_dir, seed=0):
    rows, dim = w0.shape
    if kind == "fp32":
        return EmbeddingBag(rows, dim, weight=w0.copy())
    if kind == "split_bf16":
        return SplitEmbeddingBag(rows, dim, weight=w0.copy())
    hot = np.random.default_rng(seed).integers(0, rows, size=rows // 3)
    return TieredEmbeddingBag(rows, dim, weight=w0.copy(), hot_rows=hot, cold_dir=cold_dir)


def close(*bags):
    for bag in bags:
        if hasattr(bag, "close"):  # a tiered bag owns a file
            bag.close()


def storage_bits(bag):
    """Every bit a bag stores, in id order."""
    if bag.storage == "split_bf16":
        return np.stack([bag.hi, bag.lo])
    return bits(bag.dense_weight())


@pytest.mark.parametrize("kind", ["fp32", "split_bf16", "tiered"])
class TestScatterAddRows:
    @pytest.mark.usefixtures("kernel_tier")
    @case
    @settings(max_examples=80, deadline=None, **TIERED)
    def test_both_entries_equal_the_oracle(self, kind, cold_dir, **kw):
        w0, idx, deltas, shared, shared_rows = draw(**kw)
        bags = [make_bag(kind, w0, cold_dir, kw["seed"]) for _ in range(5)]
        try:
            scatter_add_rows_oracle(bags[0], idx, deltas)
            bags[1].scatter_add_rows(idx, deltas)
            bags[2].scatter_add_rows(idx, deltas, delta_rows=np.arange(idx.size))
            for bag in bags[1:3]:
                np.testing.assert_array_equal(storage_bits(bag), storage_bits(bags[0]))
            scatter_add_rows_oracle(bags[3], idx, shared[shared_rows])
            bags[4].scatter_add_rows(idx, shared, delta_rows=shared_rows)
            np.testing.assert_array_equal(storage_bits(bags[4]), storage_bits(bags[3]))
        finally:
            close(*bags)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_an_id_past_the_table_raises(self, kind, cold_dir, dim):
        w0 = np.ones((6, dim), np.float32)
        idx = np.array([2, 6, 1], dtype=np.int64)
        ones = np.ones((3, dim), np.float32)
        for update in (
            lambda bag: scatter_add_rows_oracle(bag, idx, ones),
            lambda bag: bag.scatter_add_rows(idx, ones),
            lambda bag: bag.scatter_add_rows(idx, ones, delta_rows=np.arange(3)),
            lambda bag: bag.scatter_add_rows(idx, ones[:2], delta_rows=np.array([0, 1, 1])),
        ):
            bag = make_bag(kind, w0, cold_dir)
            try:
                with pytest.raises(IndexError):
                    update(bag)
            finally:
                close(bag)


@pytest.mark.parametrize("dim", [1, 4])
def test_the_array_kernel_refuses_an_id_past_the_table_too(dim):
    idx = np.array([2, 6, 1], dtype=np.int64)
    ones = np.ones((3, dim), np.float32)
    for value_rows in (None, np.arange(3)):
        with pytest.raises(IndexError):
            scatter_add_exact(np.ones((6, dim), np.float32), idx, ones, value_rows=value_rows)
    with pytest.raises(IndexError):
        reference.scatter_add(np.ones((6, dim), np.float32), idx, ones)
