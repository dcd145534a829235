"""Random dataset and the bounded-Zipf sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import RandomRecDataset, bounded_zipf
from repro.kernels import dispatch
from repro.kernels.synth import KNUTH, MAX_SCRAMBLE_ITEMS
from tests.conftest import TIERED, tiny_config


def zipf_oracle(seed: int, size: int, n_items: int, alpha: float, scramble: bool) -> list[int]:
    """The sampler as first written: the inverse CDF as one expression,
    the scramble in Python integers (exact at any size)."""
    u = np.random.default_rng(seed).random(size)
    m = float(n_items)
    x = (1.0 + u * (m ** (1.0 - alpha) - 1.0)) ** (1.0 / (1.0 - alpha))
    ranks = np.minimum(x.astype(np.int64) - 1, n_items - 1).clip(0).tolist()
    return [(r + 12345) * KNUTH % n_items for r in ranks] if scramble else ranks


class TestBoundedZipf:
    @given(st.integers(1, 10_000), st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_range(self, n_items, seed):
        rng = np.random.default_rng(seed)
        idx = bounded_zipf(rng, 200, n_items)
        assert idx.min() >= 0 and idx.max() < n_items

    def test_skew_exists(self):
        rng = np.random.default_rng(0)
        idx = bounded_zipf(rng, 100_000, 1_000_000)
        _, counts = np.unique(idx, return_counts=True)
        # A heavy head: the hottest item appears far above the mean.
        assert counts.max() > 20 * counts.mean()

    def test_scramble_spreads_hot_ids(self):
        """Hot ids must not cluster at the low end (hashed categoricals)."""
        rng = np.random.default_rng(0)
        idx = bounded_zipf(rng, 50_000, 1_000_000, scramble=True)
        uniq, counts = np.unique(idx, return_counts=True)
        hot = uniq[counts.argmax()]
        assert hot > 1_000  # unscrambled Zipf puts the head at id 0

    def test_unscrambled_head_at_zero(self):
        rng = np.random.default_rng(0)
        idx = bounded_zipf(rng, 50_000, 1_000_000, scramble=False)
        uniq, counts = np.unique(idx, return_counts=True)
        assert uniq[counts.argmax()] == 0

    def test_scramble_preserves_count_distribution(self):
        a = bounded_zipf(np.random.default_rng(7), 20_000, 100_000, scramble=False)
        b = bounded_zipf(np.random.default_rng(7), 20_000, 100_000, scramble=True)
        ca = np.sort(np.unique(a, return_counts=True)[1])
        cb = np.sort(np.unique(b, return_counts=True)[1])
        np.testing.assert_array_equal(ca, cb)

    def test_tiny_table_degenerates(self):
        rng = np.random.default_rng(0)
        idx = bounded_zipf(rng, 2048, 3)
        assert set(np.unique(idx)) <= {0, 1, 2}

    def test_validations(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bounded_zipf(rng, 10, 0)
        with pytest.raises(ValueError):
            bounded_zipf(rng, 10, 10, alpha=1.0)
        with pytest.raises(ValueError, match="prime"):
            bounded_zipf(rng, 10, KNUTH)

    def test_the_scramble_stops_where_int64_would_wrap(self):
        """At the bound the largest rank's product fits ``int64`` and the
        map is the exact one; one item more raises (it used to wrap and
        stop being a bijection), unless the ranks are not scrambled."""
        assert MAX_SCRAMBLE_ITEMS == 3_474_689_199
        assert (MAX_SCRAMBLE_ITEMS - 1 + 12345) * KNUTH <= 2**63 - 1
        assert (MAX_SCRAMBLE_ITEMS + 12345) * KNUTH > 2**63 - 1
        got = bounded_zipf(np.random.default_rng(3), 4096, MAX_SCRAMBLE_ITEMS, alpha=0.5)
        assert got.tolist() == zipf_oracle(3, 4096, MAX_SCRAMBLE_ITEMS, 0.5, True)
        for n_items in (MAX_SCRAMBLE_ITEMS + 1, 4_000_000_000):
            with pytest.raises(ValueError, match="wrap"):
                bounded_zipf(np.random.default_rng(3), 16, n_items)
            ranks = bounded_zipf(np.random.default_rng(3), 16, n_items, scramble=False)
            assert ranks.tolist() == zipf_oracle(3, 16, n_items, 1.05, False)


@pytest.mark.usefixtures("kernel_tier")
class TestBoundedZipfUnderEachTier:
    @given(
        n_items=st.sampled_from([1, 2, 3, 4, 50_000, 40_000_000, MAX_SCRAMBLE_ITEMS]),
        size=st.sampled_from([0, 1, 7, 1000]),
        alpha=st.sampled_from([0.5, 0.9, 1.05, 1.5, 2.0]),
        scramble=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None, **TIERED)
    def test_ids_are_the_exact_map(self, n_items, size, alpha, scramble, seed):
        got = bounded_zipf(np.random.default_rng(seed), size, n_items, alpha, scramble)
        assert got.dtype == np.int64 and got.shape == (size,)
        assert got.tolist() == zipf_oracle(seed, size, n_items, alpha, scramble)

    #: Ranks whose scramble product a float64 quotient estimate misses by
    #: one, above (the first five) and below (the last): found by scanning
    #: the top 2e7 ranks of the scramble bound and of mlperf's table 0.
    MISSES = {
        MAX_SCRAMBLE_ITEMS: [3456248243, 3458287518, 3459672080],
        39_884_406: [27646740, 36866435, 30652366],
    }

    @pytest.mark.parametrize("n_items", sorted(MISSES))
    def test_ranks_where_a_float64_quotient_is_off_by_one(self, n_items):
        ranks = np.array(self.MISSES[n_items], dtype=np.uint64)
        product = (ranks + np.uint64(12345)) * np.uint64(KNUTH)
        estimate = (product.astype(np.float64) * (1.0 / n_items)).astype(np.uint64)
        assert (estimate != product // np.uint64(n_items)).all()
        got = dispatch.zipf_ids(ranks.astype(np.float64) + 1.0, n_items, True)
        assert got.tolist() == [(r + 12345) * KNUTH % n_items for r in ranks.tolist()]


class TestRandomRecDataset:
    def test_batch_shapes(self):
        cfg = tiny_config()
        ds = RandomRecDataset(cfg, seed=3)
        b = ds.batch(12)
        assert b.size == 12
        assert b.dense.shape == (12, cfg.dense_features)
        assert len(b.indices) == cfg.num_tables
        assert all(off[-1] == 12 * cfg.lookups_per_table for off in b.offsets)

    def test_deterministic_per_index(self):
        cfg = tiny_config()
        ds = RandomRecDataset(cfg, seed=3)
        a, b = ds.batch(8, 5), ds.batch(8, 5)
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.indices[0], b.indices[0])

    def test_batches_differ_across_indices(self):
        cfg = tiny_config()
        ds = RandomRecDataset(cfg, seed=3)
        assert not np.array_equal(ds.batch(8, 0).dense, ds.batch(8, 1).dense)

    def test_batches_iterator(self):
        cfg = tiny_config()
        ds = RandomRecDataset(cfg, seed=3)
        batches = list(ds.batches(4, count=3))
        assert len(batches) == 3
        np.testing.assert_array_equal(batches[1].dense, ds.batch(4, 1).dense)

    def test_indices_in_table_range(self):
        cfg = tiny_config(rows=17)
        b = RandomRecDataset(cfg, seed=0).batch(32)
        for t, idx in enumerate(b.indices):
            assert idx.max() < cfg.table_rows[t]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            RandomRecDataset(tiny_config(), 0).batch(0)
