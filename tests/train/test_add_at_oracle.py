"""The fused sparse update against ``np.add.at`` at the benchmark's shape.

The repo benchmark's own check compares ``fused`` with
``update.name="reference"``, and both go through the fold kernel of
:mod:`repro.kernels.segment`.  Here the twin's sparse update is applied
by ``scatter_add_rows_reference`` -- literal ``np.add.at`` -- on the
``train_emb`` workload (8 x 50 000 x E64, P = 32), whose Zipf(1.05)
look-ups give duplicate runs from 1 to ~2 000 long.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.update import UpdateStrategy
from repro.tiering.store import TieredEmbeddingBag
from repro.train import RunSpec, Trainer

STEPS = 3
WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "suite" / "workloads"


class AddAtUpdate(UpdateStrategy):
    """Alg. 2's materialised gradient applied row by row by NumPy."""

    cost_key = "reference"

    def apply(self, table, grad, lr):
        table.scatter_add_rows_reference(grad.indices, -np.float32(lr) * grad.values)


def train_emb_spec(tiered: bool) -> RunSpec:
    """The benchmark's own workload file, cut to ``STEPS`` steps."""
    name = "train_emb_tiered" if tiered else "train_emb"
    spec = json.loads((WORKLOADS / f"{name}.json").read_text())
    spec["schedule"]["steps"] = STEPS
    return RunSpec.from_dict(spec)


@pytest.mark.parametrize("tiered", [False, True], ids=["flat", "tiered"])
def test_fused_weights_equal_add_at_weights_bitwise(tiered):
    fused = Trainer.from_spec(train_emb_spec(tiered))
    oracle = Trainer.from_spec(train_emb_spec(tiered))
    oracle.optimizer.strategy = AddAtUpdate()
    try:
        fused.fit(STEPS)
        oracle.fit(STEPS)
        if tiered:
            assert any(
                isinstance(t, TieredEmbeddingBag) for t in fused.model.tables.values()
            )
        assert fused.losses == oracle.losses
        want, got = oracle.model_state_dict(), fused.model_state_dict()
        assert set(got) == set(want)
        for key in want:
            np.testing.assert_array_equal(
                got[key].view(np.uint32), want[key].view(np.uint32), err_msg=key
            )
    finally:
        fused.close()
        oracle.close()
