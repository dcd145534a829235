"""End-to-end DLRM model: shapes, training behaviour, storage modes."""

import sys

import numpy as np
import pytest

from repro.core.model import DLRM
from repro.core.optim import SGD, SplitSGD
from repro.core.update import make_strategy
from tests.conftest import (
    assert_same_bits,
    capacity_bytes,
    pending_grads,
    predict_proba,
    random_batch,
    tiny_config,
)


class TestSparseUpdateTakesTheInteractionsBlockWhole:
    """``DLRM.sparse_update`` reshapes the dot interaction's ``(S, N, E)``
    block into the slab's gradient instead of concatenating the tables;
    anything else -- a list, a shard's subset -- still concatenates, and
    both give the same bits."""

    @pytest.fixture
    def concatenations(self, monkeypatch):
        calls = []
        real = np.concatenate

        def spy(*args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_globals.get("__name__") == "repro.core.model" and "dembs" in caller.f_locals:
                calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", spy)
        return calls

    def test_the_block_is_reshaped_not_copied(self, tiny_cfg, concatenations):
        batch = random_batch(tiny_cfg, 16)
        models = [DLRM(tiny_cfg, seed=3) for _ in range(2)]
        blocks = [pending_grads(model, batch)[1] for model in models]
        assert blocks[0].shape == (tiny_cfg.num_tables, 16, tiny_cfg.embedding_dim)
        models[0].sparse_update(blocks[0], batch, SGD(lr=0.1))
        assert concatenations == []
        models[1].sparse_update(list(blocks[1]), batch, SGD(lr=0.1))  # the tables one by one
        assert len(concatenations) == 1
        assert_same_bits(models[0].table_state_dict(), models[1].table_state_dict())

    def test_a_subset_of_tables_concatenates(self, tiny_cfg, concatenations):
        batch = random_batch(tiny_cfg, 16)
        whole, shard = DLRM(tiny_cfg, seed=3), DLRM(tiny_cfg, seed=3, table_ids=[0, 2])
        block = pending_grads(whole, batch)[1]
        whole.sparse_update(block, batch, SGD(lr=0.1))
        shard.sparse_update(block, batch, SGD(lr=0.1))
        assert len(concatenations) == 1
        want = {k: v for k, v in whole.table_state_dict().items() if k.split(".")[1] in "02"}
        assert_same_bits(shard.table_state_dict(), want)


class TestForward:
    def test_logit_shape(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0)
        batch = random_batch(tiny_cfg, 16)
        assert model.forward(batch).shape == (16, 1)

    def test_deterministic_across_constructions(self, tiny_cfg):
        batch = random_batch(tiny_cfg, 8)
        a = DLRM(tiny_cfg, seed=42).forward(batch)
        b = DLRM(tiny_cfg, seed=42).forward(batch)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_weights(self, tiny_cfg):
        batch = random_batch(tiny_cfg, 8)
        a = DLRM(tiny_cfg, seed=1).forward(batch)
        b = DLRM(tiny_cfg, seed=2).forward(batch)
        assert not np.array_equal(a, b)

    def test_cat_interaction_variant(self):
        cfg = tiny_config(interaction="cat")
        model = DLRM(cfg, seed=0)
        batch = random_batch(cfg, 8)
        assert model.forward(batch).shape == (8, 1)

    def test_partial_table_ownership_requires_exchange(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0, table_ids=[0, 2])
        batch = random_batch(tiny_cfg, 8)
        emb = model.embedding_forward(batch)
        assert set(emb) == {0, 2}
        with pytest.raises(ValueError, match="missing embedding outputs"):
            model.dense_forward(batch, emb)

    def test_table_shards_reproduce_full_model(self, tiny_cfg):
        """Any table partition sees identical per-table weights."""
        full = DLRM(tiny_cfg, seed=9)
        shard = DLRM(tiny_cfg, seed=9, table_ids=[1, 3])
        np.testing.assert_array_equal(
            full.tables[1].dense_weight(), shard.tables[1].dense_weight()
        )
        np.testing.assert_array_equal(
            full.tables[3].dense_weight(), shard.tables[3].dense_weight()
        )

    def test_invalid_table_ids(self, tiny_cfg):
        with pytest.raises(ValueError):
            DLRM(tiny_cfg, table_ids=[99])


class TestTraining:
    def test_loss_decreases_on_fixed_batch(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0)
        opt = SGD(lr=0.05)
        batch = random_batch(tiny_cfg, 32)
        losses = [model.train_step(batch, opt) for _ in range(30)]
        assert losses[-1] < losses[0] * 0.9

    def test_the_skipped_bottom_input_grad_moves_no_bit(self, tiny_cfg):
        # A model whose bottom MLP still computes d(dense features) -- the
        # backward before the skip -- trains to the same bits.
        batch = random_batch(tiny_cfg, 16)
        lean, full = DLRM(tiny_cfg, seed=7), DLRM(tiny_cfg, seed=7)
        full.bottom_backward = lambda ddense: full.bottom.backward(ddense)
        losses = []
        for model in (lean, full):
            opt = SGD(lr=0.1)
            opt.register(model.parameters())
            losses.append([model.train_step(batch, opt) for _ in range(3)])
        assert losses[0] == losses[1]
        assert_same_bits(lean.state_dict(), full.state_dict())

    def test_backward_populates_all_gradients(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0)
        batch = random_batch(tiny_cfg, 16)
        _, dembs = pending_grads(model, batch)
        assert all(p.grad is not None for p in model.parameters())
        assert [g.shape for g in dembs] == [(16, tiny_cfg.embedding_dim)] * tiny_cfg.num_tables

    def test_sparse_updates_touch_only_used_rows(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0)
        batch = random_batch(tiny_cfg, 16)
        w_before = model.tables[0].dense_weight().copy()
        model.train_step(batch, SGD(lr=0.1))
        used = np.unique(batch.indices[0])
        unused = np.setdiff1d(np.arange(tiny_cfg.table_rows[0]), used)
        w_after = model.tables[0].dense_weight()
        np.testing.assert_array_equal(w_after[unused], w_before[unused])
        assert not np.array_equal(w_after[used], w_before[used])

    @pytest.mark.parametrize("strategy", ["reference", "atomic", "rtm", "racefree", "fused"])
    def test_all_update_strategies_train_identically(self, tiny_cfg, strategy):
        """Fig. 7's premise: strategies differ in speed, never in result."""
        batch = random_batch(tiny_cfg, 16)
        ref = DLRM(tiny_cfg, seed=5)
        ref.train_step(batch, SGD(lr=0.1, strategy=make_strategy("reference")))
        other = DLRM(tiny_cfg, seed=5)
        other.train_step(batch, SGD(lr=0.1, strategy=make_strategy(strategy)))
        for t in tiny_cfg.table_rows and ref.table_ids:
            np.testing.assert_allclose(
                ref.tables[t].dense_weight(),
                other.tables[t].dense_weight(),
                rtol=1e-6,
                atol=1e-7,
            )

    def test_predict_proba_in_unit_interval(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0)
        p = predict_proba(model, random_batch(tiny_cfg, 16))
        assert p.shape == (16,)
        assert ((p >= 0) & (p <= 1)).all()


class TestSplitStorage:
    def test_split_bf16_model_trains(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0, storage="split_bf16")
        opt = SplitSGD(lr=0.05)
        opt.register(model.parameters())
        batch = random_batch(tiny_cfg, 32)
        losses = [model.train_step(batch, opt) for _ in range(30)]
        assert losses[-1] < losses[0] * 0.9

    def test_split_tracks_fp32_closely(self, tiny_cfg):
        batch = random_batch(tiny_cfg, 32)
        fp32 = DLRM(tiny_cfg, seed=1)
        split = DLRM(tiny_cfg, seed=1, storage="split_bf16")
        opt32 = SGD(lr=0.05)
        opt16 = SplitSGD(lr=0.05)
        opt16.register(split.parameters())
        l32 = [fp32.train_step(batch, opt32) for _ in range(10)]
        l16 = [split.train_step(batch, opt16) for _ in range(10)]
        # BF16 compute, FP32-exact updates: trajectories stay close.
        np.testing.assert_allclose(l16, l32, rtol=0.08)

    def test_invalid_storage_rejected(self, tiny_cfg):
        with pytest.raises(ValueError):
            DLRM(tiny_cfg, storage="fp16")


class TestCapacity:
    def test_capacity_counts_tables_and_params(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0)
        dense = sum(p.nbytes for p in model.parameters())
        sparse = sum(capacity_bytes(t) for t in model.tables.values())
        assert capacity_bytes(model) == dense + sparse

    def test_sharded_capacity_is_smaller(self, tiny_cfg):
        full = DLRM(tiny_cfg, seed=0)
        shard = DLRM(tiny_cfg, seed=0, table_ids=[0])
        assert capacity_bytes(shard) < capacity_bytes(full)
