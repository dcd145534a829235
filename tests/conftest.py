"""Shared fixtures: tiny DLRM configs and deterministic RNG streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DLRMConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def tiny_config(
    num_tables: int = 4,
    rows: int = 50,
    dim: int = 8,
    lookups: int = 3,
    minibatch: int = 16,
    dense: int = 10,
    interaction: str = "dot",
) -> DLRMConfig:
    """A structurally-complete DLRM small enough for exact testing."""
    return DLRMConfig(
        name="tiny",
        minibatch=minibatch,
        global_minibatch=minibatch * 4,
        local_minibatch=minibatch,
        lookups_per_table=lookups,
        embedding_dim=dim,
        table_rows=(rows,) * num_tables,
        dense_features=dense,
        bottom_mlp=(12, dim),
        top_mlp=(16, 8, 1),
        interaction=interaction,
    )


@pytest.fixture
def tiny_cfg() -> DLRMConfig:
    return tiny_config()


def random_batch(cfg: DLRMConfig, n: int, seed: int = 0, ragged: bool = False):
    """A deterministic random batch; ``ragged=True`` varies bag lengths."""
    from repro.core.batch import Batch

    g = np.random.default_rng(seed)
    dense = g.standard_normal((n, cfg.dense_features)).astype(np.float32)
    indices, offsets = [], []
    for t in range(cfg.num_tables):
        if ragged:
            lengths = g.integers(0, cfg.lookups_per_table + 2, size=n)
        else:
            lengths = np.full(n, cfg.lookups_per_table)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=off[1:])
        idx = g.integers(0, cfg.table_rows[t], size=int(off[-1]), dtype=np.int64)
        indices.append(idx)
        offsets.append(off)
    labels = g.integers(0, 2, size=n).astype(np.float32)
    return Batch(dense=dense, indices=indices, offsets=offsets, labels=labels)


def assert_same_bits(got: dict, want: dict, what: str = "state") -> None:
    """Two state dicts hold the same keys, dtypes, shapes and bytes
    (not merely equal values: -0.0 and NaN payloads count)."""
    assert set(got) == set(want), what
    for key, value in want.items():
        a, b = np.atleast_1d(got[key]), np.atleast_1d(value)
        assert a.dtype == b.dtype and a.shape == b.shape, f"{what}: {key}"
        np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8), err_msg=f"{what}: {key}")
