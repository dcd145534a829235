"""Extensions beyond the paper's vanilla SGD: LR schedule + Adagrad."""

import numpy as np
import pytest

from repro.core.model import DLRM
from repro.core.optim import SGD, SparseAdagrad
from repro.core.param import Parameter
from repro.core.schedule import WarmupDecaySchedule
from tests.conftest import random_batch, state_bytes, tiny_config


class TestWarmupDecaySchedule:
    def test_warmup_ramps_linearly(self):
        s = WarmupDecaySchedule(peak_lr=1.0, warmup_steps=4)
        assert [s.lr_at(i) for i in range(4)] == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_hold_then_decay(self):
        s = WarmupDecaySchedule(
            peak_lr=1.0, warmup_steps=2, hold_steps=2, decay_steps=4, final_lr=0.2
        )
        assert s.lr_at(2) == 1.0 and s.lr_at(3) == 1.0
        assert s.lr_at(4) == pytest.approx(1.0)
        assert s.lr_at(6) == pytest.approx(0.6)
        assert s.lr_at(100) == pytest.approx(0.2)

    def test_no_decay_holds_peak_forever(self):
        s = WarmupDecaySchedule(peak_lr=0.5, warmup_steps=1)
        assert s.lr_at(1000) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupDecaySchedule(peak_lr=0.0, warmup_steps=1)
        with pytest.raises(ValueError):
            WarmupDecaySchedule(peak_lr=1.0, warmup_steps=-1)
        with pytest.raises(ValueError):
            WarmupDecaySchedule(peak_lr=1.0, warmup_steps=1, final_lr=2.0)
        with pytest.raises(ValueError):
            WarmupDecaySchedule(peak_lr=1.0, warmup_steps=1).lr_at(-1)

    def test_scheduled_training_runs(self):
        cfg = tiny_config()
        model = DLRM(cfg, seed=0)
        opt = SGD(lr=1.0)
        sched = WarmupDecaySchedule(
            peak_lr=0.1, warmup_steps=5, hold_steps=5, decay_steps=10, final_lr=0.01
        )
        batch = random_batch(cfg, 32)
        losses = []
        for step in range(20):
            opt.lr = sched.lr_at(step)
            losses.append(model.train_step(batch, opt))
        assert losses[-1] < losses[0]


class TestSparseAdagrad:
    def test_dense_step_adapts(self, rng):
        p = Parameter(np.zeros((2, 2), np.float32))
        opt = SparseAdagrad(lr=1.0)
        opt.register([p])
        g = np.ones((2, 2), np.float32)
        p.accumulate_grad(g)
        opt.step_dense([p])
        first = -p.value.copy()
        p.accumulate_grad(g)
        opt.step_dense([p])
        second = -p.value - first
        # Accumulated curvature shrinks the second step.
        assert np.all(second < first)

    def test_sparse_rowwise_state(self, rng):
        cfg = tiny_config(num_tables=2)
        model = DLRM(cfg, seed=0)
        opt = SparseAdagrad(lr=0.1)
        opt.register(model.parameters())
        batch = random_batch(cfg, 16)
        losses = [model.train_step(batch, opt) for _ in range(20)]
        assert losses[-1] < losses[0]

    def test_unregistered_dense_raises(self, rng):
        p = Parameter(np.zeros(3, np.float32))
        p.accumulate_grad(np.ones(3, np.float32))
        with pytest.raises(RuntimeError):
            SparseAdagrad(lr=0.1).step_dense([p])

    def test_split_tables_rejected(self):
        cfg = tiny_config()
        model = DLRM(cfg, seed=0, storage="split_bf16")
        opt = SparseAdagrad(lr=0.1)
        opt.register(model.parameters())
        with pytest.raises(ValueError, match="FP32 tables only"):
            model.train_step(random_batch(cfg, 16), opt)

    def test_state_accounting(self):
        cfg = tiny_config(num_tables=2, rows=50, dim=8)
        model = DLRM(cfg, seed=0)
        opt = SparseAdagrad(lr=0.1)
        opt.register(model.parameters())
        dense = sum(p.size * 4 for p in model.parameters())
        got = state_bytes(opt, model.parameters(), list(model.tables.values()))
        assert got == dense + 2 * 50 * 4  # one float per row per table

    def test_repeated_rows_shrink_their_steps(self):
        """Rows hit often get smaller effective lr -- the Adagrad point,
        and a good property for the Zipf-headed Criteo tables."""
        cfg = tiny_config(num_tables=1, rows=10, dim=4, lookups=1)
        model = DLRM(cfg, seed=0)
        opt = SparseAdagrad(lr=0.5)
        opt.register(model.parameters())
        hot_before = model.tables[0].dense_weight()[0].copy()
        import numpy as np

        from repro.core.batch import Batch

        for i in range(5):
            n = 8
            batch = Batch(
                dense=np.zeros((n, cfg.dense_features), np.float32),
                indices=[np.zeros(n, dtype=np.int64)],  # all hits on row 0
                offsets=[np.arange(n + 1)],
                labels=np.ones(n, np.float32),
            )
            model.train_step(batch, opt)
        acc = opt._row_state[model.tables[0]]
        assert acc[0] > 0 and np.all(acc[1:] == 0)
        assert not np.array_equal(model.tables[0].dense_weight()[0], hot_before)
