"""One consolidation: per-rank state mappings -> the single-process layout.

``consolidate_state`` is what ``DistributedDLRM.state_dict`` /
``optimizer_state_dict`` and the process executor's ``state_dicts`` (over
its shared-memory arenas) both return.  Held here to the single-process
twin: a ``DLRM`` + optimizer that loads the consolidated state must give
it back from its own ``state_dict()`` -- same keys, in the same order,
same bits -- whatever the optimizer keeps per parameter or per table.
"""

import numpy as np
import pytest

from repro.core.model import DLRM
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM, consolidate_state
from repro.train import RunSpec, Trainer
from tests.conftest import assert_same_bits, random_batch, tiny_config
from tests.parallel.test_dense_step_optimizers import OPTIMIZERS

NAMES = ["sgd", "sgd_momentum", "split_sgd", "adagrad"]


def trained(name: str, ranks: int, placement="round_robin"):
    make_opt, storage, _ = OPTIMIZERS[name]
    cfg = tiny_config(num_tables=5, minibatch=12)
    dist = DistributedDLRM(
        cfg, SimCluster(ranks, backend="ccl"), seed=3, storage=storage, placement=placement
    )
    dist.attach_optimizers(make_opt)
    for step in range(3):
        dist.train_step(random_batch(cfg, 12, seed=step))
    return cfg, dist


def twin_states(cfg, name: str, model_state: dict, opt_state: dict) -> tuple[dict, dict]:
    """What a single-process model and optimizer return after loading."""
    make_opt, storage, _ = OPTIMIZERS[name]
    model, opt = DLRM(cfg, seed=99, storage=storage), make_opt()
    opt.register(model.parameters())
    model.load_state_dict(model_state)
    opt.load_state_dict(opt_state, model.parameters(), model.tables)
    return model.state_dict(), opt.state_dict(model.parameters(), model.tables)


def assert_same_layout(got: dict, want: dict, what: str) -> None:
    assert list(got) == list(want), what  # key order too
    assert_same_bits(got, want, what)


@pytest.mark.parametrize(
    "ranks,placement",
    [(1, "round_robin"), (3, "round_robin"), (3, [2, 0, 1, 0, 2])],
    ids=["1-rank", "3-ranks", "3-ranks-scrambled"],
)
@pytest.mark.parametrize("name", NAMES)
def test_per_rank_dicts_consolidate_to_the_single_process_twins_state(name, ranks, placement):
    cfg, dist = trained(name, ranks, placement)
    rank_models = [m.state_dict() for m in dist.models]
    rank_opts = [
        opt.state_dict(m.parameters(), m.tables) for opt, m in zip(dist.optimizers, dist.models)
    ]
    model_state = consolidate_state(rank_models, dist.owners)
    opt_state = consolidate_state(rank_opts, dist.owners)
    want_model, want_opt = twin_states(cfg, name, model_state, opt_state)
    assert_same_layout(model_state, want_model, "model")
    assert_same_layout(opt_state, want_opt, "optimizer")
    # The methods are that function over those dicts ...
    assert_same_layout(dist.state_dict(), want_model, "DistributedDLRM.state_dict")
    assert_same_layout(dist.optimizer_state_dict(), want_opt, "optimizer_state_dict")
    # ... each table's keys from the rank that owns it, nothing copied twice.
    for t, owner in enumerate(dist.owners):
        for key, value in model_state.items():
            if key.startswith(f"table.{t}."):
                assert value is rank_models[owner][key]
    if name == "adagrad":
        assert [k for k in opt_state if k.startswith("row.")] == [f"row.{t}" for t in range(5)]


def test_consolidated_values_are_the_mappings_own():
    """Arena views go in as they are: the caller copies what it keeps."""
    a = {"lr": np.float64(0.1), "dense.0": np.zeros(2, np.float32), "row.1": np.ones(3, np.float32)}
    b = {"lr": np.float64(0.1), "dense.0": np.zeros(2, np.float32), "row.0": np.ones(4, np.float32)}
    out = consolidate_state([a, b], owners=[1, 0])
    assert list(out) == ["lr", "dense.0", "row.0", "row.1"]
    assert out["dense.0"] is a["dense.0"]
    assert out["row.0"] is b["row.0"] and out["row.1"] is a["row.1"]


@pytest.mark.parametrize("optimizer,storage", [("adagrad", "fp32"), ("split_sgd", "split_bf16")])
def test_the_process_executor_consolidates_its_arenas_the_same_way(monkeypatch, optimizer, storage):
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")
    spec = RunSpec.from_dict(
        {
            "model": {"config": "small", "rows_cap": 120, "minibatch": 24, "seed": 4},
            "data": {"name": "random", "seed": 1},
            "optimizer": {"name": optimizer, "lr": 0.05},
            "precision": {"storage": storage},
            "parallel": {"ranks": 3, "platform": "cluster"},
            "schedule": {"steps": 3, "batch_size": 24, "eval_size": 24},
        }
    )
    inline = Trainer.from_spec(spec).fit()
    proc = Trainer.from_spec(spec, backend="process", workers=2)
    try:
        proc.fit()
        got_model, got_opt = proc._executor.state_dicts()
    finally:
        proc.close()
    assert_same_layout(got_model, inline.dist.state_dict(), "model")
    assert_same_layout(got_opt, inline.dist.optimizer_state_dict(), "optimizer")
    for value in (*got_model.values(), *got_opt.values()):
        assert value.base is None or value.flags.owndata  # copied out of shared memory
