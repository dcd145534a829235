"""Synthetic Criteo-Terabyte stand-in (see DESIGN.md substitution table).

The real terabyte click logs cannot be redistributed; this generator
reproduces the two properties the paper's experiments depend on:

1. **Index skew.**  Categorical values are drawn Zipf(alpha~1.05) per
   table, truncated to the real MLPerf cardinalities.  Small-cardinality
   tables (Criteo has tables with 3, 4, 10 rows) become almost
   deterministic -- the cache-line contention regime that makes the
   atomic update 10x slower than race-free in Fig. 7/8.
2. **A learnable click signal.**  Labels are drawn from a planted
   logistic teacher: each (table, index) pair contributes a deterministic
   pseudo-random effect, plus a linear effect of the dense features.  A
   DLRM can recover the signal through its embedding rows, so ROC AUC
   rises and saturates with epoch fraction like Fig. 16's curves.

Everything is a pure function of (seed, batch_index), reproducible across
ranks.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import Batch
from repro.core.config import DLRMConfig
from repro.data.synthetic import RandomRecDataset, bounded_zipf
from repro.kernels.reference import scatter_add
from repro.util import rng_from

#: Knuth's multiplicative hash constant (golden-ratio scramble).
_HASH_MULT = np.uint64(2654435761)
_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)


def _hashed_effect(table: int, idx: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic pseudo-random effect in [-0.5, 0.5) per (table, idx).

    This is the teacher's "ground-truth embedding": a fixed scalar effect
    per categorical value, computable without materialising 188M rows.
    """
    mask64 = (1 << 64) - 1
    table_mix = np.uint64(((table + 1) * int(_HASH_MIX)) & mask64)
    seed_mult = np.uint64((seed * 2 + 1) & mask64)
    h = idx.astype(np.uint64)
    # Unsigned array arithmetic wraps modulo 2^64 by construction.
    h = (h + table_mix) * _HASH_MULT
    h ^= h >> np.uint64(29)
    h *= seed_mult
    h ^= h >> np.uint64(32)
    return (h & np.uint64(0xFFFFFFFF)).astype(np.float64) / 2.0**32 - 0.5


class SyntheticCriteoDataset(RandomRecDataset):
    """Zipf-skewed, teacher-labelled click-through data."""

    distribution = "zipf"

    def __init__(
        self,
        cfg: DLRMConfig,
        seed: int = 0,
        alpha: float = 1.05,
        signal_scale: float = 4.0,
        dense_signal: float = 1.0,
        label_noise: float = 0.25,
    ):
        super().__init__(cfg, seed)
        if alpha <= 0 or alpha == 1.0:
            raise ValueError("alpha must be positive and != 1")
        self.alpha = alpha
        self.signal_scale = signal_scale
        self.dense_signal = dense_signal
        self.label_noise = label_noise
        teacher_rng = rng_from(seed, "teacher")
        self._dense_w = teacher_rng.standard_normal(cfg.dense_features)
        self._table_w = teacher_rng.standard_normal(cfg.num_tables)

    def sample_indices(
        self, rng: np.random.Generator, table: int, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        p = self.cfg.lookups_per_table
        idx = bounded_zipf(rng, n * p, self.cfg.table_rows[table], self.alpha)
        offsets = np.arange(0, n * p + 1, p, dtype=np.int64)
        return idx, offsets

    def teacher_logits(
        self, dense: np.ndarray, indices: list[np.ndarray], offsets: list[np.ndarray]
    ) -> np.ndarray:
        """The planted ground-truth click logit for each sample."""
        n = dense.shape[0]
        score = self.dense_signal * (dense @ self._dense_w) / np.sqrt(
            self.cfg.dense_features
        )
        for t in range(self.cfg.num_tables):
            eff = _hashed_effect(t, indices[t], self.seed)
            lengths = np.diff(offsets[t])
            bag = np.zeros(n)
            scatter_add(bag, np.repeat(np.arange(n), lengths), eff)
            denom = np.maximum(lengths, 1)
            score += self._table_w[t] * bag / denom
        norm = np.sqrt(1.0 + self.cfg.num_tables)
        return self.signal_scale * score / norm

    def batch(self, n: int, batch_index: int = 0) -> Batch:
        if n <= 0:
            raise ValueError("batch size must be positive")
        rng = self._rng(batch_index)
        dense = rng.standard_normal((n, self.cfg.dense_features)).astype(np.float32)
        indices, offsets = [], []
        for t in range(self.cfg.num_tables):
            idx, off = self.sample_indices(rng, t, n)
            indices.append(idx)
            offsets.append(off)
        logits = self.teacher_logits(dense, indices, offsets)
        noisy = logits + self.label_noise * rng.standard_normal(n)
        probs = 1.0 / (1.0 + np.exp(-noisy))
        labels = (rng.random(n) < probs).astype(np.float32)
        return Batch(dense=dense, indices=indices, offsets=offsets, labels=labels)
