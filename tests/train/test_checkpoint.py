"""Checkpointing: bit-exact save/load/resume -- the acceptance invariant.

The core property: training N steps equals training k, saving, loading
into a *fresh* process, and training N-k -- bit-equal weights and
optimizer state, in FP32 and Split-BF16.  Plus the train->serve loop:
``InferenceEngine.from_checkpoint`` predictions match the in-memory
model exactly.
"""

import numpy as np
import pytest

from repro.core.model import DLRM
from repro.serve import InferenceEngine
from repro.train import RunSpec, Trainer, load_checkpoint, make_trainer
from tests.conftest import build_from_checkpoint, save_checkpoint

#: (name, spec-section overrides) for every optimizer-state flavour.
VARIANTS = {
    "fp32_sgd": {},
    "fp32_momentum": {
        "optimizer": {"name": "sgd", "lr": 0.05, "kwargs": {"momentum": 0.9}}
    },
    "fp32_adagrad": {"optimizer": {"name": "adagrad", "lr": 0.05}},
    "split_bf16": {
        "optimizer": {"name": "split_sgd", "lr": 0.05},
        "precision": {"storage": "split_bf16", "lo_bits": 16},
    },
    "fp24": {
        "optimizer": {"name": "split_sgd", "lr": 0.05},
        "precision": {"storage": "split_bf16", "lo_bits": 8},
    },
}


def spec_for(name: str, **over) -> RunSpec:
    base = {
        "name": name,
        "model": {"config": "small", "rows_cap": 300, "minibatch": 32, "seed": 4},
        "data": {"name": "criteo", "seed": 1},
        "schedule": {"steps": 8, "eval_size": 64},
    }
    base.update(VARIANTS[name])
    base.update(over)
    return RunSpec.from_dict(base)


def assert_states_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def full_state(trainer: Trainer) -> tuple[dict, dict]:
    model = trainer.model
    return (
        model.state_dict(),
        trainer.optimizer.state_dict(model.parameters(), model.tables),
    )


class TestResumeBitIdentity:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_train_n_equals_k_save_load_n_minus_k(self, variant, tmp_path):
        spec = spec_for(variant)
        straight = make_trainer(spec).fit(8)

        partial = make_trainer(spec).fit(3)
        path = tmp_path / "mid.npz"
        partial.save_checkpoint(path)
        resumed = Trainer.from_checkpoint(path)
        assert resumed.step == 3
        resumed.fit(5)

        model_a, opt_a = full_state(straight)
        model_b, opt_b = full_state(resumed)
        assert_states_equal(model_a, model_b)
        assert_states_equal(opt_a, opt_b)
        # ... and the training streams continue identically afterwards.
        assert straight.fit(2).losses[-2:] == resumed.fit(2).losses[-2:]

    def test_lr_schedule_replays_across_resume(self, tmp_path):
        sched = {"name": "warmup_decay", "peak_lr": 0.3, "warmup_steps": 4,
                 "hold_steps": 1, "decay_steps": 3, "final_lr": 0.01}
        spec = spec_for(
            "fp32_sgd",
            schedule={"steps": 8, "eval_size": 64, "lr_schedule": sched},
        )
        straight = make_trainer(spec).fit(8)
        partial = make_trainer(spec).fit(3)
        partial.save_checkpoint(tmp_path / "s.npz")
        resumed = Trainer.from_checkpoint(tmp_path / "s.npz").fit(5)
        assert resumed.optimizer.lr == pytest.approx(straight.optimizer.lr)
        assert_states_equal(full_state(straight)[0], full_state(resumed)[0])


class TestServeFromCheckpoint:
    @pytest.mark.parametrize("variant", ["fp32_sgd", "split_bf16"])
    def test_engine_predictions_match_in_memory_model(self, variant, tmp_path):
        trainer = make_trainer(spec_for(variant)).fit(4)
        path = tmp_path / "m.npz"
        trainer.save_checkpoint(path)
        engine = InferenceEngine.from_checkpoint(path)
        batch = trainer.dataset.batch(128, 10_000_001)
        np.testing.assert_array_equal(
            engine.predict(batch), trainer.predict_proba(batch)
        )
        np.testing.assert_array_equal(
            engine.predict_logits(batch), trainer.model.infer(batch)
        )

    def test_engine_requires_embedded_spec(self, tmp_path, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0)
        path = tmp_path / "bare.npz"
        save_checkpoint(path, model)  # no spec
        with pytest.raises(ValueError, match="no RunSpec"):
            InferenceEngine.from_checkpoint(path)


class TestCheckpointFile:
    def test_contents_and_meta(self, tmp_path):
        spec = spec_for("split_bf16")
        trainer = make_trainer(spec).fit(2)
        path = tmp_path / "c.npz"
        trainer.save_checkpoint(path)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 2 and ckpt.spec == spec
        # Split storage round-trips as the two uint16 halves.
        assert ckpt.model_state["table.0.hi"].dtype == np.uint16
        assert ckpt.model_state["table.0.lo"].dtype == np.uint16
        assert ckpt.opt_state["lo.0"].dtype == np.uint16
        assert float(ckpt.opt_state["lr"]) == pytest.approx(0.05)

    def test_build_from_checkpoint_reconstructs_everything(self, tmp_path):
        trainer = make_trainer(spec_for("fp32_adagrad")).fit(3)
        path = tmp_path / "c.npz"
        trainer.save_checkpoint(path)
        model, opt, ckpt = build_from_checkpoint(path)
        assert ckpt.step == 3
        assert_states_equal(model.state_dict(), trainer.model.state_dict())
        assert_states_equal(
            opt.state_dict(model.parameters(), model.tables),
            trainer.optimizer.state_dict(
                trainer.model.parameters(), trainer.model.tables
            ),
        )

    def test_strict_loading_rejects_bad_shapes(self, tiny_cfg, tmp_path):
        model = DLRM(tiny_cfg, seed=0)
        state = model.state_dict()
        state["bottom.layers.0.weight"] = state["bottom.layers.0.weight"][:, :-1]
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)

    def test_strict_loading_rejects_missing_table(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0)
        state = {
            k: v for k, v in model.state_dict().items() if not k.startswith("table.2")
        }
        with pytest.raises(KeyError, match="table 2"):
            model.load_state_dict(state)

    def test_the_ring_checkpoints_periodically_and_at_the_end(self, tmp_path):
        spec = spec_for("fp32_sgd").with_overrides(
            {"resilience.ring_every": 2, "resilience.ring_dir": str(tmp_path / "ckpts")}
        )
        make_trainer(spec).fit(5)
        paths = sorted((tmp_path / "ckpts").glob("*.npz"))
        assert [p.name for p in paths] == [f"ckpt-0000000{s}.npz" for s in (2, 4, 5)]
        assert [load_checkpoint(p).step for p in paths] == [2, 4, 5]


class TestDistributedCheckpoint:
    def dist_spec(self, **over) -> RunSpec:
        base = {
            "name": "dist",
            "model": {"config": "small", "rows_cap": 300, "minibatch": 64, "seed": 11},
            "data": {"name": "random", "seed": 3},
            "parallel": {"ranks": 4, "platform": "node"},
            "schedule": {"steps": 4, "batch_size": 64, "eval_size": 64},
        }
        base.update(over)
        return RunSpec.from_dict(base)

    def test_distributed_resume_is_bit_identical(self, tmp_path):
        spec = self.dist_spec()
        straight = make_trainer(spec).fit(4)
        partial = make_trainer(spec).fit(2)
        partial.save_checkpoint(tmp_path / "d.npz")
        resumed = Trainer.from_checkpoint(tmp_path / "d.npz").fit(2)
        assert_states_equal(straight.dist.state_dict(), resumed.dist.state_dict())
        assert_states_equal(
            straight.dist.optimizer_state_dict(), resumed.dist.optimizer_state_dict()
        )

    def test_consolidated_checkpoint_serves_single_process(self, tmp_path):
        """A distributed run's file rebuilds a full single-process replica.

        Embedding updates are bit-exact across the parallelisation; the
        dense (allreduced) weights agree up to FP32 summation order, so
        the comparison is exact on tables and allclose on MLP weights.
        """
        trainer = make_trainer(self.dist_spec()).fit(3)
        path = tmp_path / "d.npz"
        trainer.save_checkpoint(path)
        model, _, ckpt = build_from_checkpoint(path)
        assert ckpt.step == 3
        state = model.state_dict()
        dist_state = trainer.dist.state_dict()
        assert set(state) == set(dist_state)
        for key in state:
            if key.startswith("table."):
                np.testing.assert_array_equal(state[key], dist_state[key], err_msg=key)
            else:
                np.testing.assert_allclose(
                    state[key], dist_state[key], rtol=1e-6, atol=1e-7, err_msg=key
                )

    def test_single_checkpoint_loads_into_distributed(self, tmp_path):
        single_spec = self.dist_spec(parallel={"ranks": 1})
        single = make_trainer(single_spec).fit(2)
        path = tmp_path / "s.npz"
        single.save_checkpoint(path)

        dist = make_trainer(self.dist_spec())
        dist.load_checkpoint(path)
        assert dist.step == 2
        assert_states_equal(single.model.state_dict(), dist.dist.state_dict())
