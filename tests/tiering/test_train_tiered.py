"""Tiered training end-to-end: bit-identical to flat, on every backend.

The acceptance invariant of the tiering subsystem: enabling hot/cold
storage (and ``placement="auto"``) changes *where rows live*, never a
single bit of the losses, weights, optimizer state, checkpoints, or
served predictions.
"""

import types
import weakref

import numpy as np
import pytest

from repro.core.model import DLRM
from repro.core.optim import SGD, SparseAdagrad
from repro.core.update import make_strategy
from repro.serve import InferenceEngine
from repro.tiering.store import TieredEmbeddingBag, apply_tiering
from repro.train import RunSpec, Trainer, make_trainer

from tests.conftest import random_batch, tiny_config


def spec_for(tiered: bool, **over) -> RunSpec:
    base = {
        "name": "tiered" if tiered else "flat",
        "model": {"config": "small", "rows_cap": 300, "minibatch": 32, "seed": 4},
        "data": {"name": "criteo", "seed": 1},  # Zipf(1.05): a real hot head
        "schedule": {"steps": 6, "eval_size": 64},
    }
    if tiered:
        base["tiering"] = {
            "enabled": True,
            "hot_rows": 32,
            "min_table_rows": 64,
            "coverage_threshold": 0.05,
        }
    base.update(over)
    return RunSpec.from_dict(base)


def assert_states_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


class TestSingleProcess:
    def test_bitwise_equals_flat(self):
        flat = make_trainer(spec_for(False)).fit()
        tiered = make_trainer(spec_for(True)).fit()
        # the plan actually tiered something, or this test proves nothing
        assert any(
            isinstance(t, TieredEmbeddingBag) for t in tiered.model.tables.values()
        )
        assert tiered.losses == flat.losses
        assert_states_equal(tiered.model_state_dict(), flat.model_state_dict())
        assert_states_equal(tiered.opt_state_dict(), flat.opt_state_dict())

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_optimizers_route_through_tiers(self, optimizer):
        over = {"optimizer": {"name": optimizer, "lr": 0.05}}
        flat = make_trainer(spec_for(False, **over)).fit()
        tiered = make_trainer(spec_for(True, **over)).fit()
        assert tiered.losses == flat.losses
        assert_states_equal(tiered.opt_state_dict(), flat.opt_state_dict())


class TestDistributed:
    def test_auto_placement_bitwise_equals_flat_round_robin(self):
        par = {"ranks": 2, "exec_backend": "thread"}
        flat = make_trainer(
            spec_for(False, parallel={**par, "placement": "round_robin"})
        ).fit()
        tiered = make_trainer(
            spec_for(True, parallel={**par, "placement": "auto"})
        ).fit()
        assert tiered.dist is not None
        assert any(  # the plan was applied on the ranks
            isinstance(t, TieredEmbeddingBag)
            for m in tiered.dist.models
            for t in m.tables.values()
        )
        assert tiered.losses == flat.losses
        assert_states_equal(tiered.model_state_dict(), flat.model_state_dict())

    def test_process_backend_matches_thread_backend(self):
        specs = [
            spec_for(True, parallel={"ranks": 2, "placement": "auto", "exec_backend": eb})
            for eb in ("thread", "process")
        ]
        thread, process = (make_trainer(s).fit() for s in specs)
        try:
            assert process.losses == thread.losses
            assert_states_equal(process.model_state_dict(), thread.model_state_dict())
        finally:
            process.close()


class TestCheckpointAndServe:
    def test_resume_is_bit_identical(self, tmp_path):
        spec = spec_for(True)
        straight = make_trainer(spec).fit(6)

        partial = make_trainer(spec).fit(3)
        path = tmp_path / "mid.npz"
        partial.save_checkpoint(path)
        resumed = Trainer.from_checkpoint(path)
        assert resumed.step == 3
        resumed.fit()  # the spec's remaining 3 steps
        assert_states_equal(resumed.model_state_dict(), straight.model_state_dict())
        assert_states_equal(resumed.opt_state_dict(), straight.opt_state_dict())

    def test_serve_out_of_core_matches_flat_replica(self, tmp_path):
        spec = spec_for(True)
        trainer = make_trainer(spec).fit()
        path = tmp_path / "final.npz"
        trainer.save_checkpoint(path)

        engine = InferenceEngine.from_checkpoint(path)
        # the engine rebuilt the plan and split the same tables
        tiered = [
            t for t in engine.model.tables.values()
            if isinstance(t, TieredEmbeddingBag)
        ]
        assert tiered
        assert sum(t.capacity_bytes() for t in tiered) < sum(
            t.cold_bytes() for t in tiered
        )
        batch = trainer.eval_batch()
        np.testing.assert_array_equal(
            engine.predict(batch), trainer.predict_proba(batch)
        )


class TestSlabMembership:
    """A tiered table leaves its model's embedding slab; the rest stay."""

    CFG = tiny_config(num_tables=4, rows=60, dim=8, lookups=4)

    @staticmethod
    def plans(tables):
        return {
            t: types.SimpleNamespace(mode="hot_cold", hot_rows=np.arange(0, 60, 7) + t)
            for t in tables
        }

    def build(self, tiered_tables, cold_dir, optimizer="sgd", update="fused"):
        model = DLRM(self.CFG, seed=3)
        converted = apply_tiering(
            model, self.plans(tiered_tables), cold_dir=str(cold_dir), share_hot=False
        )
        assert converted == sorted(tiered_tables)
        opt = (SparseAdagrad if optimizer == "adagrad" else SGD)(
            lr=0.05, strategy=make_strategy(update, threads=4)
        )
        opt.register(model.parameters())
        return model, opt

    def train(self, model, opt, steps=6):
        return [
            model.train_step(random_batch(self.CFG, 16, seed=s, ragged=s % 3 == 2), opt)
            for s in range(steps)
        ]

    def test_a_fully_tiered_model_frees_its_slab(self, tmp_path):
        model, opt = self.build(range(4), tmp_path)
        assert model.slab is None and model._slab_tables == ()
        assert all(isinstance(t, TieredEmbeddingBag) for t in model.tables.values())
        flat, flat_opt = self.build((), tmp_path)
        assert self.train(model, opt) == self.train(flat, flat_opt)
        assert_states_equal(model.state_dict(), flat.state_dict())
        # Freed with the last table that leaves -- by reference count,
        # not whenever the cyclic GC next runs.
        storage = weakref.ref(flat.slab.weight)
        apply_tiering(flat, self.plans(range(4)), cold_dir=str(tmp_path), share_hot=False)
        assert flat.slab is None and storage() is None

    @pytest.mark.parametrize(
        "optimizer,update", [("sgd", "fused"), ("sgd", "racefree"), ("adagrad", "racefree")]
    )
    def test_a_partly_tiered_model_trains_like_its_flat_twin(self, tmp_path, optimizer, update):
        model, opt = self.build((1, 2), tmp_path, optimizer, update)
        flat, flat_opt = self.build((), tmp_path, optimizer, update)
        assert model._slab_tables == (0, 3) and model.slab.rows == 240  # dead rows stay
        for t in (0, 3):
            assert np.shares_memory(model.tables[t].weight, model.slab.weight)
        for t in (1, 2):
            assert isinstance(model.tables[t], TieredEmbeddingBag)
        assert self.train(model, opt) == self.train(flat, flat_opt)
        assert_states_equal(model.state_dict(), flat.state_dict())
        assert_states_equal(
            opt.state_dict(model.parameters(), model.tables),
            flat_opt.state_dict(flat.parameters(), flat.tables),
        )
        # The tiered tables' slab rows are dead: no step touched them.
        untrained = DLRM(self.CFG, seed=3).slab.weight
        np.testing.assert_array_equal(model.slab.weight[60:180], untrained[60:180])
