"""Random dataset (paper Sect. VI-D2: "for small and large configs, we
use random dataset") and the bounded-Zipf index sampler.

Indices are drawn uniformly per table -- minimal contention, which is why
Fig. 7 shows all optimised update strategies tying on the small config.
Batches are deterministic functions of (seed, batch_index), so distributed
ranks and the single-socket reference see bit-identical data.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import Batch
from repro.core.config import DLRMConfig
from repro.kernels import dispatch
from repro.kernels.synth import KNUTH, MAX_SCRAMBLE_ITEMS
from repro.util import rng_from


def bounded_zipf(
    rng: np.random.Generator,
    size: int,
    n_items: int,
    alpha: float = 1.05,
    scramble: bool = True,
) -> np.ndarray:
    """Zipf-like draws on ``[0, n_items)`` via the continuous power-law
    inverse CDF: P(rank k) ~ k^-alpha truncated to the item count.

    ``alpha`` near 1 matches the head-heaviness of real click logs;
    ``n_items`` of a few units (Criteo has tables of cardinality 3 and 4)
    degenerates to near-deterministic draws -- exactly the contention the
    paper observed on the terabyte dataset.

    ``scramble`` applies a fixed affine bijection to the ranks so hot ids
    are scattered across the table, like the hashed categorical ids of
    the real dataset.  Without it, every hot row lands at the bottom of
    the id range and Alg. 4's row-range partition would see artificial
    load imbalance that real Criteo does not exhibit.  The bijection is
    exact up to :data:`~repro.kernels.synth.MAX_SCRAMBLE_ITEMS` items
    (3,474,689,199); a larger scrambled table raises ``ValueError``.
    """
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("alpha must be positive and != 1")
    if scramble and n_items % KNUTH == 0:
        raise ValueError("n_items collides with the scramble prime")
    if scramble and n_items > MAX_SCRAMBLE_ITEMS:
        raise ValueError(
            f"n_items {n_items} > {MAX_SCRAMBLE_ITEMS}: the scramble would wrap int64"
        )
    # Inverse CDF of the continuous density ~ x^-alpha on [1, M], in
    # place: (1 + u * (M^(1-alpha) - 1)) ** (1 / (1 - alpha)), the same
    # operations in the same order (``**=`` takes ``**``'s scalar paths).
    x = rng.random(size)
    x *= float(n_items) ** (1.0 - alpha) - 1.0
    x += 1.0
    x **= 1.0 / (1.0 - alpha)
    return dispatch.zipf_ids(x, n_items, scramble)


class RandomRecDataset:
    """Uniform-random DLRM inputs with Bernoulli(0.5) labels."""

    distribution = "uniform"

    def __init__(self, cfg: DLRMConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed

    def _rng(self, batch_index: int) -> np.random.Generator:
        return rng_from(self.seed, "batch", batch_index)

    def sample_indices(
        self, rng: np.random.Generator, table: int, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(indices, offsets) for one table: fixed P look-ups per bag."""
        p = self.cfg.lookups_per_table
        idx = rng.integers(0, self.cfg.table_rows[table], size=n * p, dtype=np.int64)
        offsets = np.arange(0, n * p + 1, p, dtype=np.int64)
        return idx, offsets

    def batch(self, n: int, batch_index: int = 0) -> Batch:
        """Deterministic batch #``batch_index`` of size ``n``."""
        if n <= 0:
            raise ValueError("batch size must be positive")
        rng = self._rng(batch_index)
        dense = rng.standard_normal((n, self.cfg.dense_features)).astype(np.float32)
        indices, offsets = [], []
        for t in range(self.cfg.num_tables):
            idx, off = self.sample_indices(rng, t, n)
            indices.append(idx)
            offsets.append(off)
        labels = rng.integers(0, 2, size=n).astype(np.float32)
        return Batch(dense=dense, indices=indices, offsets=offsets, labels=labels)

    def batches(self, n: int, count: int, start: int = 0):
        """Iterate ``count`` deterministic batches."""
        for i in range(start, start + count):
            yield self.batch(n, i)
