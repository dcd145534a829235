"""The seams ``benchmarks/suite`` instruments from outside.

The repo benchmark may not be edited by a change that claims a gain, and
it wraps methods *by class and name* (``layers.patch_table``), reading
work counts from positional arguments.  A refactor that renames one of
them, moves it to a base class or routes the work around it does not
fail the suite -- the span just reads zero and its time drops into the
residual.  This test fails instead, in the inner loop.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.train import RunSpec, make_trainer

SUITE = Path(__file__).resolve().parents[2] / "benchmarks" / "suite"


@pytest.fixture
def suite(monkeypatch):
    """The suite's own ``layers`` and ``spans`` modules (it runs with
    its directory on the path and imports them by bare name)."""
    monkeypatch.syspath_prepend(str(SUITE))
    before = set(sys.modules)
    try:
        yield SimpleNamespace(
            layers=importlib.import_module("layers"), spans=importlib.import_module("spans")
        )
    finally:
        for name in set(sys.modules) - before:
            if getattr(sys.modules[name], "__file__", None) and Path(
                sys.modules[name].__file__
            ).parent == SUITE:
                del sys.modules[name]


def test_every_patched_method_is_defined_on_its_class(suite):
    table = suite.layers.patch_table()
    assert len(table) >= 29
    for cls, method, span, _ in table:
        assert method in vars(cls), f"{cls.__name__}.{method} ({span}) is inherited or gone"


def test_a_racefree_two_rank_step_runs_through_the_seams(suite):
    spec = RunSpec.from_dict(
        {
            "model": {
                "config": "small",
                "overrides": {
                    "table_rows": [200, 3, 150, 64], "embedding_dim": 8, "lookups_per_table": 5,
                    "bottom_mlp": [12, 8], "top_mlp": [16, 1],
                },
                "seed": 4,
            },
            "data": {"name": "random", "seed": 1},
            "optimizer": {"name": "sgd", "lr": 0.05},
            "update": {"name": "racefree"},
            "parallel": {"ranks": 2, "platform": "cluster"},
            "schedule": {"steps": 2, "batch_size": 32, "eval_size": 32},
        }
    )
    trainer = make_trainer(spec)
    rec = suite.spans.SpanRecorder()
    suite.layers.install(rec)
    try:
        trainer.fit(2)
    finally:
        rec.unpatch()
        trainer.close()
    totals = rec.totals()
    counted = {name for _, _, name, count in suite.layers.patch_table() if count is not None}
    for name in ("core.update.sparse", "core.optim.dense", "comm.allreduce", "comm.pack"):
        assert totals.get(name, {}).get("calls", 0) > 0, f"no {name} span: the step walks around it"
        if name in counted:
            assert totals[name]["count"] > 0, f"{name} spans carry no work count"
    # One sparse update and one dense step a rank a step; a pack and an
    # unpack a rank a bucket a step.
    assert totals["core.update.sparse"]["calls"] == totals["core.optim.dense"]["calls"] == 4
    buckets = len(trainer.dist.top_buckets) + len(trainer.dist.bottom_buckets)
    assert totals["comm.pack"]["calls"] == 2 * 2 * 2 * buckets
    assert "core.embedding.bwd" not in totals  # no materialised Alg. 2 gradient
    params = sum(p.size for p in trainer.model.parameters())
    assert totals["core.optim.dense"]["count"] == 4 * params


def test_a_fused_step_counts_every_look_up_once_in_each_sparse_span(suite, monkeypatch):
    """The slab's forward and its fused update take the step's checked
    look-up in the slots the suite reads with ``len()``: per step, the
    ``core.embedding.fwd`` and ``core.update.sparse`` counts are the
    step's look-ups, and each span is entered once."""
    from repro.core.model import DLRM

    spec = RunSpec.from_dict(
        {
            "model": {
                "config": "small",
                "overrides": {
                    "table_rows": [200, 3, 150, 64], "embedding_dim": 8, "lookups_per_table": 5,
                    "bottom_mlp": [12, 8], "top_mlp": [16, 1],
                },
                "seed": 4,
            },
            "data": {"name": "random", "seed": 1},
            "optimizer": {"name": "sgd", "lr": 0.05},
            "update": {"name": "fused"},
            "schedule": {"steps": 3, "batch_size": 32, "eval_size": 32},
        }
    )
    look_ups = []
    train_step = DLRM.train_step

    def counting(self, batch, *args, **kwargs):
        look_ups.append(sum(len(idx) for idx in batch.indices))
        return train_step(self, batch, *args, **kwargs)

    monkeypatch.setattr(DLRM, "train_step", counting)
    trainer = make_trainer(spec)
    rec = suite.spans.SpanRecorder()
    suite.layers.install(rec)
    try:
        trainer.fit(3)
    finally:
        rec.unpatch()
        trainer.close()
    totals = rec.totals()
    assert len(look_ups) == 3 and sum(look_ups) > 0
    for name in ("core.embedding.fwd", "core.update.sparse"):
        assert totals[name]["calls"] == 3, name
        assert totals[name]["count"] == sum(look_ups), name
