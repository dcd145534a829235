"""The fused sparse update against ``np.add.at`` at the benchmark's shape.

The repo benchmark's own check compares ``fused`` with
``update.name="reference"``, and both go through the one dispatched
scatter.  Here the twin's sparse update is applied
by ``repro.kernels.reference`` -- literal ``np.add.at`` -- on the
``train_emb`` workload (8 x 50 000 x E64, P = 32), whose Zipf(1.05)
look-ups give duplicate runs from 1 to ~2 000 long -- and on the
``train_dist4`` workload (4 ranks, ``racefree``), where every rank's
bag-level update is held to ``np.add.at`` on that rank.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.update import FusedBackwardUpdate, UpdateStrategy
from repro.tiering.store import TieredEmbeddingBag
from repro.train import RunSpec, Trainer
from tests.conftest import assert_same_bits, scatter_add_rows_oracle

STEPS = 3
WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "suite" / "workloads"


class AddAtUpdate(UpdateStrategy):
    """Alg. 2's materialised gradient applied row by row by NumPy."""

    def apply(self, table, grad, lr):
        scatter_add_rows_oracle(table, grad.indices, -np.float32(lr) * grad.values)


def workload_spec(name: str) -> RunSpec:
    """The benchmark's own workload file, cut to ``STEPS`` steps."""
    spec = json.loads((WORKLOADS / f"{name}.json").read_text())
    spec["schedule"]["steps"] = STEPS
    return RunSpec.from_dict(spec)


def train_emb_spec(tiered: bool) -> RunSpec:
    return workload_spec("train_emb_tiered" if tiered else "train_emb")


@pytest.mark.parametrize("tiered", [False, True], ids=["flat", "tiered"])
def test_fused_weights_equal_add_at_weights_bitwise(tiered):
    fused = Trainer.from_spec(train_emb_spec(tiered))
    oracle = Trainer.from_spec(train_emb_spec(tiered))
    oracle.optimizer.strategy = AddAtUpdate("reference")
    try:
        fused.fit(STEPS)
        oracle.fit(STEPS)
        if tiered:
            assert any(
                isinstance(t, TieredEmbeddingBag) for t in fused.model.tables.values()
            )
        assert fused.losses == oracle.losses
        assert_same_bits(fused.model_state_dict(), oracle.model_state_dict())
    finally:
        fused.close()
        oracle.close()


def test_racefree_on_four_ranks_equals_add_at_on_every_rank_bitwise():
    """The distributed default dispatches bag-level gradients; its twin
    through the materialised entry sees the same rank clocks, and the
    ``np.add.at`` twin the same weights."""
    spec = workload_spec("train_dist4")
    assert (spec.parallel.ranks, spec.update.name) == (4, "racefree")
    bag_level, materialised, oracle = (Trainer.from_spec(spec) for _ in range(3))
    for opt in materialised.dist.optimizers:
        # ``racefree`` as it ran before it took bag-level gradients: not
        # a FusedBackwardUpdate, so the loops hand it Alg. 2's gradient.
        opt.strategy = UpdateStrategy("racefree")
    for opt in oracle.dist.optimizers:
        opt.strategy = AddAtUpdate("reference")
    try:
        for trainer in (bag_level, materialised, oracle):
            trainer.fit(STEPS)
        for twin in (materialised, oracle):
            assert twin.losses == bag_level.losses
            assert_same_bits(twin.model_state_dict(), bag_level.model_state_dict())
        assert materialised._executor.clocks() == bag_level._executor.clocks()
        for a in bag_level.dist.optimizers:
            assert type(a.strategy) is FusedBackwardUpdate and a.strategy.cost_key == "racefree"
    finally:
        for trainer in (bag_level, materialised, oracle):
            trainer.close()
