"""Component tables: builtins present, lookups validate."""

import pytest

from repro.core.optim import SGD, SparseAdagrad, SplitSGD
from repro.core.schedule import WarmupDecaySchedule
from repro.core.update import FusedBackwardUpdate, RaceFreeUpdate, make_strategy
from repro.train.registry import DATASETS, LR_SCHEDULES, OPTIMIZERS, UPDATE_STRATEGIES
from repro.train.registry import create


class TestRegistryMechanics:
    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown gadget 'y'.*'x'"):
            create({"x": int}, "gadget", "y")


class TestBuiltins:
    def test_optimizers(self):
        assert {"sgd", "split_sgd", "adagrad", "master_weight"} <= set(
            OPTIMIZERS
        )
        assert isinstance(create(OPTIMIZERS, "optimizer", "sgd", lr=0.1), SGD)
        assert isinstance(create(OPTIMIZERS, "optimizer", "split_sgd", lr=0.1), SplitSGD)
        assert isinstance(create(OPTIMIZERS, "optimizer", "adagrad", lr=0.1), SparseAdagrad)

    def test_update_strategies_match_legacy_factory(self):
        assert {"reference", "atomic", "rtm", "racefree", "fused"} <= set(
            UPDATE_STRATEGIES
        )
        s = create(UPDATE_STRATEGIES, "update strategy", "racefree", threads=5)
        assert isinstance(s, RaceFreeUpdate) and s.threads == 5
        # non-threaded strategies accept (and ignore) the threads kwarg
        assert create(UPDATE_STRATEGIES, "update strategy", "atomic", threads=9).cost_key == "atomic"

    def test_make_strategy_delegates_to_registry(self):
        got = make_strategy("fused", threads=3)
        assert isinstance(got, FusedBackwardUpdate) and got.threads == 3
        with pytest.raises(ValueError, match="unknown update strategy"):
            make_strategy("lockfree")

    def test_custom_strategy_reachable_via_make_strategy(self, monkeypatch):
        class NullStrategy(RaceFreeUpdate):
            cost_key = "racefree"

        monkeypatch.setitem(UPDATE_STRATEGIES, "null-test", lambda threads=28: NullStrategy(threads))
        assert isinstance(make_strategy("null-test"), NullStrategy)

    def test_datasets(self, tiny_cfg):
        for name in ("random", "criteo"):
            ds = create(DATASETS, "dataset", name, cfg=tiny_cfg, seed=1)
            assert ds.batch(4, 0).size == 4

    def test_lr_schedules(self):
        sched = create(LR_SCHEDULES, "lr schedule", "warmup_decay", peak_lr=0.2, warmup_steps=4)
        assert isinstance(sched, WarmupDecaySchedule)
        assert sched.lr_at(3) == pytest.approx(0.2)
