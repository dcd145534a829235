"""Registries: builtins present, extension works, lookups validate."""

import pytest

from repro.core.optim import SGD, SparseAdagrad, SplitSGD
from repro.core.schedule import WarmupDecaySchedule
from repro.core.update import FusedBackwardUpdate, RaceFreeUpdate, make_strategy
from repro.train import (
    DATASETS,
    LR_SCHEDULES,
    OPTIMIZERS,
    Registry,
    UPDATE_STRATEGIES,
)


class TestRegistryMechanics:
    def test_register_and_create(self):
        reg = Registry("thing")
        reg.register("double", lambda x: 2 * x)
        assert reg.create("double", x=21) == 42
        assert "double" in reg and reg.names() == ["double"]

    def test_decorator_form(self):
        reg = Registry("thing")

        @reg.register("trip")
        def triple(x):
            return 3 * x

        assert reg.create("trip", x=3) == 9
        assert triple(1) == 3  # the decorator returns the function

    def test_duplicate_rejected_unless_override(self):
        reg = Registry("thing")
        reg.register("a", int)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", float)
        reg.register("a", float, override=True)
        assert reg.get("a") is float

    def test_unknown_name_lists_known(self):
        reg = Registry("gadget")
        reg.register("x", int)
        with pytest.raises(ValueError, match="unknown gadget 'y'.*'x'"):
            reg.create("y")

    def test_len_and_iter(self):
        reg = Registry("thing")
        reg.register("b", int)
        reg.register("a", int)
        assert len(reg) == 2 and list(reg) == ["a", "b"]


class TestBuiltins:
    def test_optimizers(self):
        assert {"sgd", "split_sgd", "adagrad", "master_weight"} <= set(
            OPTIMIZERS.names()
        )
        assert isinstance(OPTIMIZERS.create("sgd", lr=0.1), SGD)
        assert isinstance(OPTIMIZERS.create("split_sgd", lr=0.1), SplitSGD)
        assert isinstance(OPTIMIZERS.create("adagrad", lr=0.1), SparseAdagrad)

    def test_update_strategies_match_legacy_factory(self):
        assert {"reference", "atomic", "rtm", "racefree", "fused"} <= set(
            UPDATE_STRATEGIES.names()
        )
        s = UPDATE_STRATEGIES.create("racefree", threads=5)
        assert isinstance(s, RaceFreeUpdate) and s.threads == 5
        # non-threaded strategies accept (and ignore) the threads kwarg
        assert UPDATE_STRATEGIES.create("atomic", threads=9).cost_key == "atomic"

    def test_make_strategy_delegates_to_registry(self):
        got = make_strategy("fused", threads=3)
        assert isinstance(got, FusedBackwardUpdate) and got.threads == 3
        with pytest.raises(ValueError, match="unknown update strategy"):
            make_strategy("lockfree")

    def test_custom_strategy_reachable_via_make_strategy(self):
        class NullStrategy(RaceFreeUpdate):
            cost_key = "racefree"

        UPDATE_STRATEGIES.register("null-test", lambda threads=28: NullStrategy(threads))
        try:
            assert isinstance(make_strategy("null-test"), NullStrategy)
        finally:
            UPDATE_STRATEGIES._factories.pop("null-test")

    def test_datasets(self, tiny_cfg):
        for name in ("random", "criteo"):
            ds = DATASETS.create(name, cfg=tiny_cfg, seed=1)
            assert ds.batch(4, 0).size == 4

    def test_lr_schedules(self):
        sched = LR_SCHEDULES.create("warmup_decay", peak_lr=0.2, warmup_steps=4)
        assert isinstance(sched, WarmupDecaySchedule)
        assert sched.lr_at(3) == pytest.approx(0.2)
