"""The embedding slab under every executor, and across commits.

A run whose ranks hold their tables in slabs equals -- losses, weights,
optimizer state, bit for bit -- the run whose tables are stand-alone
bags on the per-table path; whatever restores state (checkpoint resume,
``load_state``, ``load_rank_state``) writes through the views; and a
checkpoint written before the slab existed loads and resumes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.train import RunSpec, load_checkpoint, make_trainer
from repro.train.trainer import Trainer

from tests.conftest import opt_state, skip_unless_recorded_here, state_digest
from tests.core.test_embedding_slab import arrays, detach_tables

DATA = Path(__file__).parent / "data"
REPO = Path(__file__).resolve().parents[2]
SEED = 4
#: optimizer / update strategy / storage.
COMBOS = {
    "sgd+fused": ("sgd", "fused", "fp32"),
    "sgd+racefree": ("sgd", "racefree", "fp32"),
    "split_sgd+fused": ("split_sgd", "fused", "split_bf16"),
    "adagrad": ("adagrad", "racefree", "fp32"),
}


@pytest.fixture(autouse=True)
def _fork_context(monkeypatch):
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")


def slab_spec(combo: str, ranks: int, steps: int = 20) -> RunSpec:
    optimizer, update, storage = COMBOS[combo]
    spec = {
        "model": {
            "config": "small",
            "overrides": {
                "table_rows": [200, 3, 150, 64, 31],
                "embedding_dim": 8,
                "lookups_per_table": 5,
                "dense_features": 6,
                "bottom_mlp": [12, 8],
                "top_mlp": [16, 1],
            },
            "minibatch": 32,
            "seed": SEED,
        },
        "data": {"name": "criteo", "seed": 1},
        "optimizer": {"name": optimizer, "lr": 0.05},
        "update": {"name": update},
        "precision": {"storage": storage},
        "schedule": {"steps": steps, "batch_size": 32, "eval_size": 32},
    }
    if ranks > 1:
        spec["parallel"] = {"ranks": ranks, "platform": "cluster"}
    return RunSpec.from_dict(spec)


def models_of(trainer) -> list:
    return [trainer.model] if trainer.dist is None else trainer.dist.models


def per_table_twin(spec: RunSpec):
    """The same run with every rank's tables stand-alone (no slab)."""
    twin = make_trainer(spec)
    for model in models_of(twin):
        detach_tables(model, SEED)
    return twin


def assert_states_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def assert_tables_are_slab_views(trainer) -> None:
    for model in models_of(trainer):
        assert model.slab is not None and model.slab.rows == sum(t.rows for t in model.tables.values())
        for table in model.tables.values():
            for mine, whole in zip(arrays(table), arrays(model.slab)):
                assert np.shares_memory(mine, whole)


@pytest.mark.parametrize("executor", ["local", "inline", "process"])
@pytest.mark.parametrize("combo", sorted(COMBOS))
def test_twenty_steps_equal_the_per_table_twin(combo, executor):
    spec = slab_spec(combo, ranks=1 if executor == "local" else 2)
    twin = per_table_twin(spec).fit()
    if executor == "process":
        run = Trainer.from_spec(spec, backend="process", workers=2)
    else:
        run = make_trainer(spec)
    try:
        run.fit()
        assert run.losses == twin.losses
        assert_states_equal(run.model_state_dict(), twin.model_state_dict())
        assert_states_equal(opt_state(run), opt_state(twin))
        if executor != "process":  # the workers hold the live models
            assert_tables_are_slab_views(run)
    finally:
        run.close()
        twin.close()


@pytest.mark.parametrize("ranks", [1, 2])
@pytest.mark.parametrize("combo", ["sgd+fused", "split_sgd+fused"])
def test_resume_writes_through_the_views_and_continues_bitwise(tmp_path, combo, ranks):
    spec = slab_spec(combo, ranks, steps=8)
    straight = make_trainer(spec).fit()
    first = make_trainer(spec).fit(4)
    first.save_checkpoint(tmp_path / "mid.npz")
    resumed = Trainer.from_checkpoint(tmp_path / "mid.npz")
    assert_tables_are_slab_views(resumed)
    resumed.fit()
    assert resumed.losses == straight.losses[4:]
    assert_states_equal(resumed.model_state_dict(), straight.model_state_dict())
    assert_tables_are_slab_views(resumed)
    # load_checkpoint into a live trainer goes through the same views.
    first.load_checkpoint(tmp_path / "mid.npz")
    assert_tables_are_slab_views(first)


def test_load_rank_state_writes_through_the_views():
    spec = slab_spec("split_sgd+fused", ranks=2)
    source = make_trainer(spec).fit(3)
    target = make_trainer(spec)
    for rank in range(2):
        target._executor.load_rank_state(rank, *source._executor.rank_state_dicts(rank))
    assert_tables_are_slab_views(target)
    assert_states_equal(target.model_state_dict(), source.model_state_dict())
    source.fit(2)
    target.step = 3
    target.fit(2)
    assert_states_equal(target.model_state_dict(), source.model_state_dict())


# -- a checkpoint written by the commit before the slab --------------------------


@pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
class TestCheckpointFromTheParentCommit:
    """``data/parent_<storage>.npz`` was saved at step 5 by commit
    03dbfd6 (per-table bags, binary fold); ``parent_expected.json``
    holds what that commit itself reached five steps later."""

    def test_loads_into_the_slab_and_resumes_like_the_per_table_path(self, storage):
        path = DATA / f"parent_{storage}.npz"
        ckpt = load_checkpoint(path)  # CRCs verified
        resumed = Trainer.from_checkpoint(path)
        assert resumed.step == 5
        assert_tables_are_slab_views(resumed)
        assert_states_equal(resumed.model_state_dict(), ckpt.model_state)
        twin = Trainer.from_checkpoint(path)
        detach_tables(twin.model)
        resumed.fit(5)
        twin.fit(5)
        assert resumed.losses == twin.losses
        assert_states_equal(resumed.model_state_dict(), twin.model_state_dict())
        assert_states_equal(opt_state(resumed), opt_state(twin))

    def test_resumes_to_the_bits_the_parent_reached(self, storage, kernel_tier):
        recorded = json.loads((DATA / "parent_expected.json").read_text())
        skip_unless_recorded_here(recorded["host"])
        want = recorded["expected"][storage]
        resumed = Trainer.from_checkpoint(DATA / f"parent_{storage}.npz")
        resumed.fit(recorded["resumed_steps"])
        assert [float(x).hex() for x in resumed.losses] == want["losses"]
        assert state_digest(resumed.model_state_dict()) == want["model"]
        assert state_digest(opt_state(resumed)) == want["optimizer"]


def pinned_child(*argv: str, **environ: str) -> str:
    """stdout of a child interpreter with BLAS pinned to one thread, as
    the benchmark runs its workloads and as the parents' bits were
    recorded: two process workers sharing this process's BLAS pool spin
    through its GEMMs 16x slower.  ``environ`` adds to its environment."""
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "REPRO_MP_CONTEXT": "fork",
        "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)]),
        **environ,
    }
    child = subprocess.run(
        [sys.executable, *argv], env=env, check=True, capture_output=True, text=True, timeout=300
    )
    return child.stdout


_BOTH_EXECUTORS = """
import json, sys
from pathlib import Path
from repro.train import RunSpec, Trainer
from tests.train.test_slab_executors import state_digest

spec = RunSpec.from_dict(json.loads(Path(sys.argv[1]).read_text()))
out = {}
for name, how in (("inline", {}), ("process", {"backend": "process", "workers": 2})):
    trainer = Trainer.from_spec(spec, **how)
    try:
        trainer.fit(int(sys.argv[2]))
        model_state, opt_state = trainer._executor.state_dicts()
        out[name] = {
            "losses": [float(x).hex() for x in trainer.losses],
            "model": state_digest(model_state),
            "optimizer": state_digest(opt_state),
            "rank_clocks": [c.hex() for c in trainer._executor.clocks()],
        }
    finally:
        trainer.close()
print(json.dumps(out))
"""


class TestTheHybridStepAgainstCommitA67c22e:
    """``parent_dist4_expected.json``: 20 steps of the benchmark's
    ``train_dist4`` workload at commit a67c22e, the last one whose
    hybrid-parallel step concatenated each gradient bucket, scattered
    the sum back tensor by tensor and materialised ``racefree``'s
    row-per-lookup gradient.  The rank clocks are virtual and compared
    on every host; the bits only where GEMMs round as they did there."""

    RECORDED = json.loads((DATA / "parent_dist4_expected.json").read_text())

    def test_both_executors_reach_the_parents_bits_and_clocks(self):
        recorded = self.RECORDED
        stdout = pinned_child(
            "-c", _BOTH_EXECUTORS, str(REPO / recorded["workload"]), str(recorded["steps"])
        )
        got = json.loads(stdout.strip().splitlines()[-1])
        assert got["process"] == got["inline"]
        clocks = [float.fromhex(c) for c in got["inline"]["rank_clocks"]]
        want_clocks = [float.fromhex(c) for c in recorded["rank_clocks"]]
        assert clocks == pytest.approx(want_clocks, rel=1e-12)
        skip_unless_recorded_here(recorded["host"])
        assert got["inline"] == {**recorded["expected"], "rank_clocks": recorded["rank_clocks"]}


class TestTheTrainingStepAgainstCommit15082ab:
    """``parent_15082ab_expected.json`` is ``tests/train/step_bits.py`` run
    at commit 15082ab, the last one that kept a second entry beside each
    operator of the step (``scatter_add_bags`` / ``apply_bag_updates``,
    ``DLRM.backward`` + ``apply_updates``, two consolidations): 20 steps
    of the benchmark's ``train_emb``, ``train_emb_tiered``, ``train_bf16``
    and ``train_dist4`` specs at test scale on the local, inline and
    process executors, and ``parent_15082ab_bf16.npz``, its ``train_bf16``
    checkpoint at step 10.  The rank clocks are virtual and compared on
    every host; the bits only where GEMMs round as they did there.  Every
    test runs once per kernel tier: the child of the ``numpy`` run has a
    ``CC`` that cannot compile, the real fallback on all three executors."""

    COMMIT, SUITE = "15082ab", "workloads"
    #: case of the suite -> the checkpoint the parent saved of its local run
    CHECKPOINTS = {"train_bf16": "parent_15082ab_bf16.npz"}

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads((DATA / f"parent_{self.COMMIT}_expected.json").read_text())

    @pytest.fixture(scope="class", params=["numpy", "native"])
    def got(self, request, tmp_path_factory):
        ckpt = tmp_path_factory.mktemp("step_bits") / "ckpt.npz"
        script = str(REPO / "tests/train/step_bits.py")
        environ = {"CC": "/bin/false"} if request.param == "numpy" else {}
        got = json.loads(pinned_child(script, str(ckpt), self.SUITE, **environ))
        if got["kernels"] != request.param:
            pytest.skip(f"the child ran the {got['kernels']} tier: no native tier on this host")
        return got

    def test_every_executor_runs_every_spec(self, got, recorded):
        assert sorted(got["runs"]) == sorted(recorded["runs"])
        assert {name.split("/")[1] for name in got["runs"]} == {"local", "inline", "process"}

    def test_process_equals_inline_and_a_resume_equals_the_uninterrupted_run(self, got):
        for name, run in got["runs"].items():
            if name.endswith("/process"):
                assert run == got["runs"][name.replace("/process", "/inline")], name
        assert sorted(got["resumed"]) == sorted(self.CHECKPOINTS)
        for case, run in got["resumed"].items():
            whole = got["runs"][f"{case}/local"]
            assert (run["model"], run["optimizer"]) == (whole["model"], whole["optimizer"]), case

    def test_rank_clocks_are_the_parents(self, got, recorded):
        for name, want in recorded["runs"].items():
            clocks = [float.fromhex(c) for c in got["runs"][name]["rank_clocks"]]
            want_clocks = [float.fromhex(c) for c in want["rank_clocks"]]
            assert len(clocks) == len(want_clocks), name
            assert clocks == pytest.approx(want_clocks, rel=1e-12), name

    def test_bits_are_the_parents(self, got, recorded):
        skip_unless_recorded_here(recorded["host"])
        assert got["runs"] == recorded["runs"]
        assert got["resumed"] == recorded["resumed"]

    def test_the_parents_checkpoint_resumes(self, recorded, kernel_tier):
        reached = {}
        for case, name in self.CHECKPOINTS.items():
            path = DATA / name
            ckpt = load_checkpoint(path)  # CRCs verified
            resumed = Trainer.from_checkpoint(path)
            assert resumed.step == 10
            assert_states_equal(resumed.model_state_dict(), ckpt.model_state)
            assert_states_equal(opt_state(resumed), ckpt.opt_state)
            resumed.fit(recorded["steps"] - 10)
            reached[case] = {
                "final_loss": float(resumed.losses[-1]).hex(),
                "model": state_digest(resumed.model_state_dict()),
                "optimizer": state_digest(opt_state(resumed)),
            }
        skip_unless_recorded_here(recorded["host"])
        for case, got in reached.items():
            want = recorded["runs"][f"{case}/local"]
            assert got == {key: want[key] for key in got}, case


class TestTheDenseStepAgainstCommit82d76ee(TestTheTrainingStepAgainstCommit15082ab):
    """``parent_82d76ee_expected.json`` is ``step_bits.py``'s ``optimizers``
    suite run at commit 82d76ee, the last one whose optimizers kept their
    dense state in per-parameter dicts, three of them walking the tensors
    through a copy of the allreduce sum: ``train_dist4`` at test scale
    under ``sgd`` + ``momentum=0.9``, ``adagrad`` and ``master_weight``,
    local at one rank, inline and process at four, with each local run's
    step-10 checkpoint (``parent_82d76ee_<optimizer>.npz``)."""

    COMMIT, SUITE = "82d76ee", "optimizers"
    CHECKPOINTS = {
        f"train_dist4+{key}": f"parent_82d76ee_{key}.npz"
        for key in ("momentum", "adagrad", "master_weight")
    }
