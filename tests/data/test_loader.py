"""Batch slicing and sharding: how ranks get their part of a minibatch."""

import numpy as np
import pytest

from repro.data.synthetic import RandomRecDataset
from tests.conftest import tiny_config


class TestGlobalVsSharded:
    """``Batch.shard`` is how every rank gets its slice of the global
    minibatch (``DistributedDLRM.train_step``); the paper's
    global-minibatch loader flaw (Sect. VI-D2) is purely a cost
    phenomenon, charged by ``DistributedDLRM._charge_loader``."""

    def test_shards_partition_the_global_batch(self):
        g = RandomRecDataset(tiny_config(), 0).batch(16, 0)
        shards = g.shard(4)
        assert len(shards) == 4
        np.testing.assert_array_equal(
            np.concatenate([s.dense for s in shards]), g.dense
        )
        np.testing.assert_array_equal(
            np.concatenate([s.labels for s in shards]), g.labels
        )

    def test_shard_offsets_rebased(self):
        for s in RandomRecDataset(tiny_config(), 0).batch(16, 0).shard(4):
            for off in s.offsets:
                assert off[0] == 0


class TestBatchSlicing:
    def test_slice_preserves_lookup_structure(self):
        cfg = tiny_config()
        b = RandomRecDataset(cfg, 0).batch(12)
        s = b.slice(4, 8)
        assert s.size == 4
        p = cfg.lookups_per_table
        np.testing.assert_array_equal(
            s.indices[0], b.indices[0][4 * p : 8 * p]
        )

    def test_invalid_slice(self):
        b = RandomRecDataset(tiny_config(), 0).batch(8)
        with pytest.raises(ValueError):
            b.slice(4, 2)

    def test_shard_requires_divisibility(self):
        b = RandomRecDataset(tiny_config(), 0).batch(9)
        with pytest.raises(ValueError):
            b.shard(4)
