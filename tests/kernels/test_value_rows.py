"""One way in: per-lookup values, bag values and the oracle agree.

``scatter_add_exact`` and every bag's ``scatter_add_rows`` take the
values one row per look-up (no offsets) or one row per bag (look-up
``s`` of bag ``b`` reads ``values[b]``: bag-level gradients), scaled by
``fl32(scale * values)`` first.  Bags of one look-up each (``offsets =
arange(n + 1)``) send the per-lookup values through the bag walk, so the
two entries and the ``np.add.at`` spelling of :mod:`repro.kernels.reference`
must produce the same bits -- including ``E == 1``, empty input and
all-``-0.0`` rows; so must ``SparseGrad.aggregated`` on the expanded
values.  The bag walk takes its bags from raw offsets or from a checked
:class:`~repro.kernels.lookup.Lookup` alike.  Every entry runs once per
kernel tier.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import SparseGrad, SplitEmbeddingBag
from repro.kernels import dispatch, reference
from repro.kernels.lookup import check_lookup
from repro.kernels.rows import scatter_add
from tests.conftest import TIERED, bag_of, scatter_add_rows_oracle, tiered_bag
from tests.kernels.test_segment import bits, special_values

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf: wanted inputs

case = given(
    rows=st.integers(1, 24),
    nnz=st.sampled_from([0, 1, 7, 40, 300]),  # 300 into <= 24 rows: long runs
    dim=st.sampled_from([1, 2, 8]),
    special_share=st.sampled_from([0.0, 0.05, 0.9]),
    negative_zero=st.booleans(),
    seed=st.integers(0, 10_000),
)

#: Scales of the bag values: none, the suite's ``-lr`` and a power of two.
SCALES = (1.0, -0.05, -2.0)


def draw(rows, nnz, dim, special_share, negative_zero, seed):
    """(weight, indices, per-lookup deltas, bag deltas, their offsets):
    five ragged bags over the look-ups, some of them empty."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
    offsets = np.concatenate([[0], np.sort(rng.integers(0, nnz + 1, size=4)), [nnz]])
    if negative_zero:
        return (
            np.full((rows, dim), -0.0, np.float32), idx,
            np.full((nnz, dim), -0.0, np.float32), np.full((5, dim), -0.0, np.float32),
            offsets,
        )
    return (
        special_values(rng, (rows, dim), special_share), idx,
        special_values(rng, (nnz, dim), special_share),
        special_values(rng, (5, dim), special_share), offsets,
    )


def expanded(values, offsets, scale=1.0):
    """What the look-ups read: ``fl32(scale * values)`` of each one's bag."""
    return (np.float32(scale) * values)[np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))]


class TestKernels:
    @pytest.mark.usefixtures("kernel_tier")
    @case
    @settings(max_examples=150, deadline=None, **TIERED)
    def test_scatter_add_exact(self, **kw):
        w0, idx, deltas, shared, offsets = draw(**kw)
        want = w0.copy()
        reference.scatter_add(want, idx, deltas)
        for bags in (None, np.arange(idx.size + 1)):
            got = w0.copy()
            dispatch.scatter_add_exact(got, idx, deltas, bags)
            np.testing.assert_array_equal(bits(got), bits(want))
        if kw["negative_zero"]:
            assert np.signbit(want).all()  # -0.0 + -0.0: no +0.0 start crept in
        for scale in SCALES:
            want = w0.copy()
            reference.scatter_add(want, idx, expanded(shared, offsets, scale))
            for indices, bags in ((idx, offsets), (check_lookup(idx, offsets, kw["rows"]), None)):
                got = w0.copy()
                dispatch.scatter_add_exact(got, indices, shared, bags, scale)
                np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.usefixtures("kernel_tier")
    @case
    @settings(max_examples=150, deadline=None, **TIERED)
    def test_aggregate_duplicates(self, **kw):
        _, idx, deltas, shared, offsets = draw(**kw)
        for values in (deltas, expanded(shared, offsets)):
            want_uniq, want = reference.aggregate_duplicates(idx, values)
            uniq, got = SparseGrad(idx, values).aggregated()
            np.testing.assert_array_equal(uniq, want_uniq)
            assert got.shape == want.shape
            np.testing.assert_array_equal(bits(got), bits(want))


class TestTheBagWalk:
    """``repro_scatter_add_f32`` walks the bag offsets and scales each
    bag's gradient itself: look-up ``s`` of bag ``b`` adds
    ``fl32(-lr * dY[b])``, bitwise ``np.add.at(w, ids,
    fl32(-lr * dY)[bag_ids])`` under both tiers."""

    @pytest.mark.usefixtures("kernel_tier")
    @given(
        rows=st.integers(1, 12),  # few rows: duplicates within and across bags
        lengths=st.lists(st.integers(0, 40), max_size=12),
        dim=st.sampled_from([1, 3, 16, 17, 64, 65]),
        lr=st.sampled_from([0.05, 0.1, 1.0, 3.0, 1e-3, -0.5]),
        special_share=st.sampled_from([0.0, 0.1, 0.9]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None, **TIERED)
    def test_ragged_bags_and_specials_are_add_at_of_the_scaled_gradient(
        self, rows, lengths, dim, lr, special_share, seed
    ):
        rng = np.random.default_rng(seed)
        offsets = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
        idx = rng.integers(0, rows, size=int(offsets[-1]), dtype=np.int64)
        w0 = special_values(rng, (rows, dim), special_share)
        dy = special_values(rng, (len(lengths), dim), special_share)  # -0.0, ±inf, NaN among them
        bag_ids = np.repeat(np.arange(len(lengths)), lengths)
        want = w0.copy()
        np.add.at(want, idx, (np.float32(-lr) * dy)[bag_ids])
        for indices, bags in ((idx, offsets), (check_lookup(idx, offsets, rows), None)):
            got = w0.copy()
            dispatch.scatter_add_exact(got, indices, dy, bags, scale=-np.float32(lr))
            np.testing.assert_array_equal(bits(got), bits(want))

    @staticmethod
    def fma_witness(scale: np.float32) -> tuple[np.float32, np.float32]:
        """A row value ``w`` and a gradient ``g`` whose ``w + scale * g``
        rounds once (a fused multiply-add) to another float than the
        product rounded first and then added."""
        rng = np.random.default_rng(0)
        for w, g in rng.standard_normal((1000, 2)).astype(np.float32):
            exact = Fraction(float(w)) + Fraction(float(scale)) * Fraction(float(g))
            wide = np.float64(w) + np.float64(scale) * np.float64(g)
            if Fraction(float(wide)) == exact and np.float32(wide) != w + scale * g:
                return w, g  # exact in float64, so np.float32(wide) is the fused result
        raise AssertionError("no witness")

    @pytest.mark.usefixtures("kernel_tier")
    @pytest.mark.parametrize("lr", [0.1, 0.05, 3e-3])
    def test_the_product_rounds_before_its_add(self, lr):
        scale = -np.float32(lr)
        w, g = self.fma_witness(scale)
        fused = np.float32(np.float64(w) + np.float64(scale) * np.float64(g))
        got = np.full((2, 50), w, np.float32)  # a vector body and a scalar tail
        dispatch.scatter_add_exact(got, np.array([1]), np.full((1, 50), g, np.float32),
                                   np.array([0, 1]), scale)
        assert (got[1] == w + scale * g).all() and not (got[1] == fused).any()
        assert (got[0] == w).all()


@pytest.fixture(scope="module")
def cold_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cold"))


def make_bag(kind, w0, cold_dir, seed=0):
    rows, dim = w0.shape
    if kind == "fp32":
        return bag_of(w0)
    if kind == "split_bf16":
        return bag_of(w0, SplitEmbeddingBag)
    hot = np.random.default_rng(seed).integers(0, rows, size=rows // 3)
    return tiered_bag(w0, hot, cold_dir)


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
        w0, idx, deltas, shared, offsets = draw(**kw)
        bags = [make_bag(kind, w0, cold_dir, kw["seed"]) for _ in range(6)]
        try:
            scatter_add_rows_oracle(bags[0], idx, deltas)
            bags[1].scatter_add_rows(idx, deltas)
            bags[2].scatter_add_rows(idx, deltas, offsets=np.arange(idx.size + 1))
            for bag in bags[1:3]:
                np.testing.assert_array_equal(storage_bits(bag), storage_bits(bags[0]))
            scatter_add_rows_oracle(bags[3], idx, expanded(shared, offsets, -0.05))
            bags[4].scatter_add_rows(idx, shared, offsets=offsets, scale=-0.05)
            bags[5].scatter_add_rows(check_lookup(idx, offsets, kw["rows"]), shared, scale=-0.05)
            for bag in bags[4:]:
                np.testing.assert_array_equal(storage_bits(bag), storage_bits(bags[3]))
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
            lambda bag: bag.scatter_add_rows(idx, ones, offsets=np.arange(4)),
            lambda bag: bag.scatter_add_rows(idx, ones[:2], offsets=np.array([0, 1, 3])),
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
    for offsets in (None, np.arange(4)):
        with pytest.raises(IndexError):
            scatter_add(np.ones((6, dim), np.float32), idx, ones, offsets=offsets)
    with pytest.raises(IndexError):
        reference.scatter_add(np.ones((6, dim), np.float32), idx, ones)
