"""Embedding-row cache: hit-rate on Zipf vs uniform, LRU/LFU semantics."""

import numpy as np
import pytest

from repro.data.synthetic import bounded_zipf
from repro.serve.cache import EmbeddingCache

ROWS = 10_000


def zipf_batches(n_batches=30, per_batch=500, alpha=1.2, seed=0):
    rng = np.random.default_rng(seed)
    return [
        bounded_zipf(rng, per_batch, ROWS, alpha=alpha) for _ in range(n_batches)
    ]


def uniform_batches(n_batches=30, per_batch=500, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, ROWS, size=per_batch) for _ in range(n_batches)]


def hit_rate(cache: EmbeddingCache) -> float:
    """Cumulative hit rate over the cache's lifetime."""
    lookups = cache.hits + cache.misses
    return cache.hits / lookups if lookups else 0.0


def resident(cache: EmbeddingCache) -> set[tuple[int, int]]:
    """The (table, row) keys the cache holds."""
    return set(cache._lru if cache.policy == "lru" else cache._freq)


class TestHitRates:
    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_zipf_beats_uniform(self, policy):
        """Acceptance criterion: the Zipf head makes a small cache pay."""
        zipf = EmbeddingCache(500, (ROWS,), policy=policy)
        for idx in zipf_batches():
            zipf.access(0, idx)
        uni = EmbeddingCache(500, (ROWS,), policy=policy)
        for idx in uniform_batches():
            uni.access(0, idx)
        assert hit_rate(zipf) > hit_rate(uni) + 0.2
        assert hit_rate(zipf) > 0.5

    def test_full_capacity_converges_to_all_hits(self):
        cache = EmbeddingCache(ROWS, (ROWS,), policy="lru")
        idx = np.arange(0, ROWS, 7)
        cache.access(0, idx)          # all compulsory misses
        rep = cache.access(0, idx)    # fully resident now
        assert rep.misses == 0 and rep.hit_rate == 1.0

    def test_within_gather_duplicates_count_as_hits(self):
        cache = EmbeddingCache(4, (ROWS,))
        rep = cache.access(0, np.array([5, 5, 5, 9]))
        assert rep.misses == 2  # rows {5, 9}
        assert rep.hits == 2    # two repeated 5s
        assert rep.stats.duplicates == 2  # the hw/cache.py statistic

    def test_report_matches_cumulative_counters(self):
        cache = EmbeddingCache(100, (ROWS,))
        hits = misses = 0
        for idx in zipf_batches(n_batches=5):
            rep = cache.access(0, idx)
            hits += rep.hits
            misses += rep.misses
        assert (cache.hits, cache.misses) == (hits, misses)
        assert rep.stats.total == rep.hits + rep.misses


class TestReplacement:
    def test_lru_evicts_least_recent(self):
        cache = EmbeddingCache(2, (ROWS,), policy="lru")
        cache.access(0, np.array([1]))
        cache.access(0, np.array([2]))
        cache.access(0, np.array([1]))  # touch 1: now 2 is LRU
        cache.access(0, np.array([3]))  # evicts 2
        assert (0, 1) in resident(cache) and (0, 3) in resident(cache)
        assert (0, 2) not in resident(cache)

    def test_lfu_keeps_hot_row_through_a_scan(self):
        cache = EmbeddingCache(4, (ROWS,), policy="lfu")
        for _ in range(10):
            cache.access(0, np.array([42]))
        for row in range(100, 120):  # cold scan that would flush an LRU
            cache.access(0, np.array([row]))
        assert (0, 42) in resident(cache)
        lru = EmbeddingCache(4, (ROWS,), policy="lru")
        for _ in range(10):
            lru.access(0, np.array([42]))
        for row in range(100, 120):
            lru.access(0, np.array([row]))
        assert (0, 42) not in resident(lru)

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_capacity_bound_holds(self, policy):
        cache = EmbeddingCache(64, (ROWS,), policy=policy)
        for idx in uniform_batches(n_batches=10):
            cache.access(0, idx)
        assert len(resident(cache)) <= 64


class TestValidation:
    def test_multi_table_keys_are_disjoint(self):
        cache = EmbeddingCache(10, (ROWS, ROWS))
        cache.access(0, np.array([7]))
        rep = cache.access(1, np.array([7]))  # same row id, other table
        assert rep.misses == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            EmbeddingCache(0, (ROWS,))
        with pytest.raises(ValueError):
            EmbeddingCache(10, (ROWS,), policy="fifo")
        with pytest.raises(ValueError):
            EmbeddingCache(10, ())
        cache = EmbeddingCache(10, (ROWS,))
        with pytest.raises(ValueError):
            cache.access(1, np.array([0]))  # table out of range
        with pytest.raises(ValueError):
            cache.access(0, np.array([ROWS]))  # row out of range (index_stats)

    def test_empty_gather(self):
        cache = EmbeddingCache(10, (ROWS,))
        rep = cache.access(0, np.array([], dtype=np.int64))
        assert rep.hits == rep.misses == 0 and rep.hit_rate == 0.0
