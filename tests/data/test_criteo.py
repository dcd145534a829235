"""Synthetic Criteo generator: skew + learnable planted signal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import roc_auc
from repro.data.criteo import SyntheticCriteoDataset, _hash_keys
from repro.kernels import reference
from repro.kernels.synth import hashed_effect
from tests.conftest import TIERED, predict_proba, tiny_config


def _hashed_effect(table, idx, seed):
    return hashed_effect(idx, *_hash_keys(table, seed))


class TestHashedEffect:
    def test_deterministic(self):
        idx = np.arange(100)
        a = _hashed_effect(3, idx, seed=7)
        b = _hashed_effect(3, idx, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_varies_with_table_and_seed(self):
        idx = np.arange(100)
        assert not np.array_equal(_hashed_effect(0, idx, 7), _hashed_effect(1, idx, 7))
        assert not np.array_equal(_hashed_effect(0, idx, 7), _hashed_effect(0, idx, 8))

    def test_range_and_spread(self):
        e = _hashed_effect(0, np.arange(10_000), 1)
        assert e.min() >= -0.5 and e.max() < 0.5
        assert e.std() > 0.2  # roughly uniform


_M64 = (1 << 64) - 1


def _effect(i: int, table: int, seed: int) -> float:
    """One id's effect in Python integers: the teacher hash as the
    generator has always defined it, ``mod 2**64`` spelled out."""
    h = ((i & _M64) + ((table + 1) * 0x9E3779B97F4A7C15 & _M64)) * 2654435761 & _M64
    h ^= h >> 29
    h = h * (seed * 2 + 1) & _M64
    h ^= h >> 32
    return (h & 0xFFFFFFFF) / 2.0**32 - 0.5


def teacher_oracle(ds, dense, indices, offsets):
    """The teacher's logits with each table's bag sums by ``np.add.at``."""
    score = ds.dense_signal * (dense @ ds._dense_w) / np.sqrt(ds.cfg.dense_features)
    for t, (ids, off) in enumerate(zip(indices, offsets)):
        eff = np.array([_effect(int(i), t, ds.seed) for i in ids], dtype=np.float64)
        lengths = np.diff(off)
        bag = np.zeros(lengths.shape[0])
        reference.scatter_add(bag, np.repeat(np.arange(lengths.shape[0]), lengths), eff)
        score += ds._table_w[t] * bag / np.maximum(lengths, 1)
    return ds.signal_scale * score / np.sqrt(1.0 + ds.cfg.num_tables)


_ids = st.one_of(
    st.integers(0, 49),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-1, -(2**63), 2**62, 2**63 - 1]),
)


@pytest.mark.usefixtures("kernel_tier")
class TestTeacherUnderEachTier:
    @given(
        bags=st.lists(st.lists(_ids, max_size=5), min_size=1, max_size=9),
        equal=st.sampled_from([0, 1, 3, None]),
        seed=st.integers(0, 2**40),
    )
    @settings(max_examples=80, deadline=None, **TIERED)
    def test_ragged_bags_against_add_at(self, bags, equal, seed):
        """Empty bags, one-look-up bags, negative and huge ids: the bag
        sums are ``np.add.at``'s bits under either tier (``equal``
        trims every bag to one length, the generator's shape)."""
        if equal is not None:
            bags = [(b * equal)[:equal] if b else [7] * equal for b in bags]
        cfg = tiny_config(num_tables=2, dense=3)
        ds = SyntheticCriteoDataset(cfg, seed=seed)
        dense = np.random.default_rng(seed).standard_normal((len(bags), 3)).astype(np.float32)
        lengths = [len(b) for b in bags]
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        ids = np.array([i for b in bags for i in b], dtype=np.int64)
        indices = [ids, ids[::-1].copy()]
        got = ds.teacher_logits(dense, indices, [offsets, offsets])
        want = teacher_oracle(ds, dense, indices, [offsets, offsets])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSyntheticCriteo:
    def test_batch_structure(self):
        cfg = tiny_config()
        ds = SyntheticCriteoDataset(cfg, seed=0)
        b = ds.batch(32)
        assert b.size == 32
        assert set(np.unique(b.labels)) <= {0.0, 1.0}

    def test_labels_not_constant(self):
        cfg = tiny_config()
        b = SyntheticCriteoDataset(cfg, seed=0).batch(256)
        assert 0.05 < b.labels.mean() < 0.95

    def test_indices_are_skewed(self):
        cfg = tiny_config(rows=10_000, lookups=1)
        b = SyntheticCriteoDataset(cfg, seed=0).batch(4096)
        _, counts = np.unique(b.indices[0], return_counts=True)
        assert counts.max() > 10 * counts.mean()

    def test_teacher_signal_is_learnable_by_oracle(self):
        """The teacher's own logits must separate the labels well --
        otherwise Fig. 16's AUC curves could never rise."""
        cfg = tiny_config()
        ds = SyntheticCriteoDataset(cfg, seed=0)
        b = ds.batch(4096)
        logits = ds.teacher_logits(b.dense, b.indices, b.offsets)
        assert roc_auc(b.labels, logits) > 0.75

    def test_deterministic(self):
        cfg = tiny_config()
        a = SyntheticCriteoDataset(cfg, seed=1).batch(16, 2)
        b = SyntheticCriteoDataset(cfg, seed=1).batch(16, 2)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.indices[1], b.indices[1])

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            SyntheticCriteoDataset(tiny_config(), alpha=1.0)

    def test_dlrm_learns_the_signal(self):
        """A small DLRM trained on the generator beats AUC 0.5 quickly --
        the property Fig. 16 depends on."""
        from repro.core.model import DLRM
        from repro.core.optim import SGD

        cfg = tiny_config(num_tables=3, rows=200, dim=8, lookups=2, dense=6)
        ds = SyntheticCriteoDataset(cfg, seed=0)
        model = DLRM(cfg, seed=1)
        opt = SGD(lr=0.1)
        for i in range(30):
            model.train_step(ds.batch(128, i), opt)
        test = ds.batch(1024, 999)
        auc = roc_auc(test.labels, predict_proba(model, test))
        assert auc > 0.6
