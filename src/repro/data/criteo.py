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
from repro.kernels import dispatch
from repro.util import rng_from

#: Golden-ratio mix: table ``t``'s hash adds ``(t + 1) * _HASH_MIX``.
_HASH_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _hash_keys(table: int, seed: int) -> tuple[int, int]:
    """``(mix, seed_mult)`` of table ``table``'s teacher hash: with
    :func:`repro.kernels.synth.hashed_effect` a deterministic
    pseudo-random effect in [-0.5, 0.5) per (table, id) -- the teacher's
    "ground-truth embedding", computable without materialising 188M
    rows."""
    return ((table + 1) * _HASH_MIX) & _MASK64, (seed * 2 + 1) & _MASK64


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
        score = self.dense_signal * (dense @ self._dense_w) / np.sqrt(
            self.cfg.dense_features
        )
        for t in range(self.cfg.num_tables):
            mix, seed_mult = _hash_keys(t, self.seed)
            dispatch.teacher_bags(indices[t], offsets[t], mix, seed_mult, self._table_w[t], score)
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
