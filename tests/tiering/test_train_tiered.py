"""Tiered training end-to-end: bit-identical to flat, on every backend.

The acceptance invariant of the tiering subsystem: enabling hot/cold
storage (and ``placement="auto"``) changes *where rows live*, never a
single bit of the losses, weights, optimizer state, checkpoints, or
served predictions.
"""

import numpy as np
import pytest

from repro.serve import InferenceEngine
from repro.tiering.store import TieredEmbeddingBag
from repro.train import RunSpec, Trainer, make_trainer


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
