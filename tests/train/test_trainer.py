"""Trainer: the loop equals the hand-rolled loops it replaced."""

import numpy as np
import pytest

from repro.core.model import DLRM
from repro.core.optim import SGD
from repro.data.synthetic import RandomRecDataset
from repro.exec.executor import InlineRankExecutor, LocalExecutor
from repro.train import MetricLogger, RunSpec, Trainer, load_checkpoint, make_trainer
from repro.train.callbacks import (
    Callback,
    EarlyStopping,
    LRScheduleCallback,
    PeriodicEval,
    StepTimer,
)

from tests.conftest import tiny_config


def tiny_spec(**over) -> RunSpec:
    base = {
        "model": {"config": "small", "rows_cap": 300, "minibatch": 32, "seed": 4},
        "data": {"name": "random", "seed": 1},
        "optimizer": {"name": "sgd", "lr": 0.05},
        "schedule": {"steps": 6, "eval_size": 64},
    }
    base.update(over)
    return RunSpec.from_dict(base)


class TestTrainerLoop:
    def test_matches_manual_loop_bitwise(self):
        spec = tiny_spec()
        trainer = make_trainer(spec).fit()

        cfg = spec.build_config()
        model = DLRM(cfg, seed=4)
        opt = SGD(lr=0.05)
        opt.register(model.parameters())
        data = RandomRecDataset(cfg, seed=1)
        losses = [model.train_step(data.batch(32, i), opt) for i in range(6)]

        assert trainer.losses == losses
        a, b = trainer.model.state_dict(), model.state_dict()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_fit_steps_are_additive(self):
        spec = tiny_spec()
        t1 = make_trainer(spec).fit(2).fit(4)
        t2 = make_trainer(spec).fit(6)
        assert t1.step == t2.step == 6
        assert t1.losses == t2.losses

    def test_fit_without_spec_requires_steps(self, tiny_cfg):
        model = DLRM(tiny_cfg, seed=0)
        opt = SGD(lr=0.1)
        opt.register(model.parameters())
        trainer = Trainer(LocalExecutor(model, opt, RandomRecDataset(tiny_cfg, seed=0)))
        with pytest.raises(ValueError, match="steps is required"):
            trainer.fit()
        assert trainer.fit(2).step == 2

    def test_spec_budget_is_remaining_steps(self):
        trainer = make_trainer(tiny_spec()).fit(4)
        trainer.fit()  # spec says 6 total; only 2 remain
        assert trainer.step == 6

    def test_evaluate_leaves_training_state_untouched(self):
        trainer = make_trainer(tiny_spec()).fit(2)
        before = trainer.model.state_dict()
        pending = trainer.model._lookup  # the last training batch's fused look-up
        metrics = trainer.evaluate()
        assert set(metrics) == {"eval_loss", "auc", "accuracy"}
        after = trainer.model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert pending is not None and trainer.model._lookup is pending  # infer stores nothing


class TestCallbacks:
    def test_hook_order_and_counts(self):
        events = []

        class Recorder(Callback):
            def on_fit_start(self, trainer):
                events.append("fit_start")

            def on_step_start(self, trainer, step):
                events.append(f"start{step}")

            def on_step_end(self, trainer, step, loss):
                events.append(f"end{step}")

            def on_fit_end(self, trainer):
                events.append("fit_end")

        make_trainer(tiny_spec(), callbacks=[Recorder()]).fit(2)
        assert events == ["fit_start", "start0", "end0", "start1", "end1", "fit_end"]

    def test_metric_logger_collects_all_steps(self):
        logger = MetricLogger()
        trainer = make_trainer(tiny_spec(), callbacks=[logger]).fit()
        assert [s for s, _ in logger.history] == list(range(6))
        assert logger.losses == trainer.losses

    def test_periodic_eval_fires_and_records(self):
        logger = MetricLogger()
        trainer = make_trainer(
            tiny_spec(), callbacks=[PeriodicEval(every=2), logger]
        ).fit()
        assert [row["step"] for row in logger.eval_history] == [1, 3, 5]
        assert trainer.last_eval is not None and "auc" in trainer.last_eval

    def test_spec_schedule_section_builds_callbacks(self):
        spec = tiny_spec(
            schedule={"steps": 4, "eval_every": 2, "eval_size": 64,
                      "log_every": 2,
                      "early_stop": {"monitor": "auc", "patience": 1}}
        )
        trainer = make_trainer(spec)
        kinds = [type(cb).__name__ for cb in trainer.callbacks.callbacks]
        assert kinds == ["MetricLogger", "PeriodicEval", "EarlyStopping"]
        # Without log_every, no logger rides along (losses are on the trainer).
        bare = make_trainer(tiny_spec())
        assert [type(cb).__name__ for cb in bare.callbacks.callbacks] == []

    def test_early_stopping_on_train_loss(self):
        # Patience 1 and an (almost surely) non-monotonic loss: stops early.
        stopper = EarlyStopping(monitor="loss", patience=1, min_delta=10.0)
        trainer = make_trainer(tiny_spec(), callbacks=[stopper]).fit(50)
        assert trainer.should_stop and trainer.step < 50
        assert stopper.stopped_at == trainer.step - 1

    def test_early_stopping_modes(self):
        assert EarlyStopping(monitor="loss").mode == "min"
        assert EarlyStopping(monitor="auc").mode == "max"
        with pytest.raises(ValueError, match="mode"):
            EarlyStopping(mode="sideways")

    def test_lr_schedule_callback_follows_lr_at(self):
        spec = tiny_spec(
            schedule={
                "steps": 5,
                "eval_size": 64,
                "lr_schedule": {"name": "warmup_decay", "peak_lr": 0.2,
                                "warmup_steps": 4},
            }
        )
        trainer = make_trainer(spec)
        sched = trainer.callbacks.callbacks[0]
        assert isinstance(sched, LRScheduleCallback)
        trainer.fit()
        # After 5 steps the last applied rate is lr_at(4) = the peak.
        assert trainer.optimizer.lr == pytest.approx(0.2)

    def test_step_timer(self):
        timer = StepTimer()
        make_trainer(tiny_spec(), callbacks=[timer]).fit(3)
        assert len(timer.times) == 3 and timer.mean_ms > 0


class TestDistributedTrainer:
    def test_matches_single_process_losses(self):
        spec = tiny_spec(
            model={"config": "small", "rows_cap": 300, "minibatch": 64, "seed": 7},
            parallel={"ranks": 4, "platform": "node"},
            schedule={"steps": 3, "batch_size": 64, "eval_size": 64},
        )
        dist = make_trainer(spec)
        assert isinstance(dist._executor, InlineRankExecutor)
        dist.fit()

        single = make_trainer(
            tiny_spec(
                model={"config": "small", "rows_cap": 300, "minibatch": 64, "seed": 7},
                schedule={"steps": 3, "batch_size": 64, "eval_size": 64},
            )
        )
        single.fit()  # the loss normaliser defaults to the batch: 64 on both sides
        assert np.allclose(dist.losses, single.losses, rtol=1e-5)

    def test_batch_size_must_divide_ranks(self):
        spec = tiny_spec(
            parallel={"ranks": 4},
            schedule={"steps": 2, "batch_size": 30, "eval_size": 64},
        )
        with pytest.raises(ValueError, match="not divisible"):
            make_trainer(spec)

    def test_lr_schedule_keeps_ranks_in_lockstep(self):
        spec = tiny_spec(
            model={"config": "small", "rows_cap": 300, "minibatch": 64, "seed": 7},
            parallel={"ranks": 2, "platform": "node"},
            schedule={
                "steps": 2,
                "batch_size": 64,
                "eval_size": 64,
                "lr_schedule": {"name": "warmup_decay", "peak_lr": 0.3,
                                "warmup_steps": 2},
            },
        )
        trainer = make_trainer(spec).fit()
        rates = [opt.lr for opt in trainer.dist.optimizers]
        assert rates == pytest.approx([0.3, 0.3])


class TestTrainerConstruction:
    def test_make_trainer_picks_class(self):
        """One Trainer class; the spec's parallel section picks the executor."""
        single = make_trainer(tiny_spec())
        assert type(single) is Trainer and type(single._executor) is LocalExecutor
        dist_spec = tiny_spec(
            parallel={"ranks": 2},
            schedule={"steps": 1, "batch_size": 32, "eval_size": 64},
        )
        dist = make_trainer(dist_spec)
        assert type(dist) is Trainer and type(dist._executor) is InlineRankExecutor
        with pytest.raises(ValueError, match="ranks >= 2"):
            make_trainer(tiny_spec(), backend="process")

    def test_trainer_uses_config_minibatch_by_default(self):
        cfg = tiny_config(minibatch=24)
        model = DLRM(cfg, seed=0)
        opt = SGD(lr=0.1)
        opt.register(model.parameters())
        trainer = Trainer(LocalExecutor(model, opt, RandomRecDataset(cfg, seed=0)))
        assert trainer.batch_size == 24


class FakeExecutor:
    """The whole RankExecutor surface in ten lines: logs its calls, and
    its loss is the batch index."""

    dataset, batch_size = None, 8

    def __init__(self, log):
        self.log, self.loaded = log, None

    def step(self, index, lr):
        self.log.append(("step", index, lr))
        return float(index)

    def state_dicts(self, copy=True):
        return {"w": np.arange(3, dtype=np.float32)}, {"lr": np.float64(0.5)}

    def load_state(self, model_state, opt_state=None):
        self.loaded = (model_state, opt_state)

    def close(self):
        self.log.append(("close",))


class TestTrainerOverAFakeExecutor:
    """What the Trainer itself owns, with no model anywhere: callback
    order around the executor's step, ``should_stop``, the ``fit(None)``
    budget and the step counter in checkpoints."""

    def test_callbacks_bracket_each_executor_step(self):
        log = []

        class Recorder(Callback):
            def on_fit_start(self, trainer):
                log.append(("fit_start",))

            def on_step_start(self, trainer, step):
                log.append(("start", step))
                trainer.lr = 0.1 * (step + 1)  # what LRScheduleCallback does

            def on_step_end(self, trainer, step, loss):
                log.append(("end", step, loss))

            def on_fit_end(self, trainer):
                log.append(("fit_end",))

        trainer = Trainer(FakeExecutor(log), callbacks=[Recorder()]).fit(2)
        trainer.close()
        assert log == [
            ("fit_start",),
            ("start", 0), ("step", 0, pytest.approx(0.1)), ("end", 0, 0.0),
            ("start", 1), ("step", 1, pytest.approx(0.2)), ("end", 1, 1.0),
            ("fit_end",),
            ("close",),
        ]
        assert trainer.losses == [0.0, 1.0] and trainer.step == 2

    def test_should_stop_ends_the_fit_and_resets(self):
        class StopAfter(Callback):
            def on_step_end(self, trainer, step, loss):
                trainer.should_stop = step == 2

        log = []
        trainer = Trainer(FakeExecutor(log), callbacks=[StopAfter()]).fit(10)
        assert trainer.should_stop and trainer.step == 3
        trainer.fit(1)  # a new fit clears the flag and continues at step 3
        assert [entry[1] for entry in log] == [0, 1, 2, 3]

    def test_fit_none_is_the_spec_budget_minus_steps_done(self):
        log = []
        trainer = Trainer(FakeExecutor(log), spec=tiny_spec())  # schedule.steps = 6
        trainer.step = 4
        trainer.fit()
        assert [entry[1] for entry in log] == [4, 5] and trainer.step == 6
        trainer.step = 9  # past the budget: nothing to do, never negative
        trainer.fit()
        assert len(log) == 2 and trainer.step == 9

    def test_checkpoint_carries_step_and_executor_state(self, tmp_path):
        saver = Trainer(FakeExecutor([]), spec=tiny_spec()).fit(3)
        saver.save_checkpoint(tmp_path / "fake.npz")
        ckpt = load_checkpoint(tmp_path / "fake.npz")
        assert ckpt.step == 3 and ckpt.spec == saver.spec
        model_state, opt_state = saver._executor.state_dicts()
        assert np.array_equal(ckpt.model_state["w"], model_state["w"])
        assert ckpt.opt_state["lr"] == opt_state["lr"]

        loader = Trainer(FakeExecutor([]))
        loader.load_checkpoint(tmp_path / "fake.npz")
        assert loader.step == 3
        loaded_model, loaded_opt = loader._executor.loaded
        assert np.array_equal(loaded_model["w"], model_state["w"])
        assert loaded_opt["lr"] == opt_state["lr"]
