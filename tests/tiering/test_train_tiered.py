"""Tiered training end-to-end: bit-identical to flat, on every backend.

The acceptance invariant of the tiering subsystem: enabling hot/cold
storage (and ``placement="auto"``) changes *where rows live*, never a
single bit of the losses, weights, optimizer state, checkpoints, or
served predictions.
"""

import gc
import json
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro
from repro.core.embedding import EmbeddingBag
from repro.core.model import DLRM
from repro.core.optim import SGD, SparseAdagrad
from repro.core.update import FusedBackwardUpdate, make_strategy
from repro.serve import InferenceEngine
from repro.tiering import store
from repro.tiering.store import TieredEmbeddingBag, apply_tiering, build_tiered
from repro.train import RunSpec, Trainer, make_trainer

from tests.conftest import (
    capacity_bytes,
    cold_path,
    opt_state,
    random_batch,
    skip_unless_recorded_here,
    tiny_config,
)
from tests.core.test_embedding_slab import arrays
from tests.train.test_slab_executors import state_digest

DATA = Path(__file__).parent.parent / "train" / "data"


def spec_for(tiered: bool, **over) -> RunSpec:
    base = {
        "name": "tiered" if tiered else "flat",
        "model": {"config": "small", "rows_cap": 300, "minibatch": 32, "seed": 4},
        "data": {"name": "criteo", "seed": 1},  # Zipf(1.05): a real hot head
        "schedule": {"steps": 6, "eval_size": 64},
    }
    if tiered:
        base["tiering"] = {
            "enabled": True,
            "hot_rows": 32,
            "min_table_rows": 64,
            "coverage_threshold": 0.05,
        }
    base.update(over)
    return RunSpec.from_dict(base)


def assert_states_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


class TestSingleProcess:
    def test_bitwise_equals_flat(self):
        flat = make_trainer(spec_for(False)).fit()
        tiered = make_trainer(spec_for(True)).fit()
        # the plan actually tiered something, or this test proves nothing
        assert any(
            isinstance(t, TieredEmbeddingBag) for t in tiered.model.tables.values()
        )
        assert tiered.losses == flat.losses
        assert_states_equal(tiered.model_state_dict(), flat.model_state_dict())
        assert_states_equal(opt_state(tiered), opt_state(flat))

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_optimizers_route_through_tiers(self, optimizer):
        over = {"optimizer": {"name": optimizer, "lr": 0.05}}
        flat = make_trainer(spec_for(False, **over)).fit()
        tiered = make_trainer(spec_for(True, **over)).fit()
        assert tiered.losses == flat.losses
        assert_states_equal(opt_state(tiered), opt_state(flat))


class TestDistributed:
    def test_auto_placement_bitwise_equals_flat_round_robin(self):
        par = {"ranks": 2, "exec_backend": "thread"}
        flat = make_trainer(
            spec_for(False, parallel={**par, "placement": "round_robin"})
        ).fit()
        tiered = make_trainer(
            spec_for(True, parallel={**par, "placement": "auto"})
        ).fit()
        assert tiered.dist is not None
        assert any(  # the plan was applied on the ranks
            isinstance(t, TieredEmbeddingBag)
            for m in tiered.dist.models
            for t in m.tables.values()
        )
        assert tiered.losses == flat.losses
        assert_states_equal(tiered.model_state_dict(), flat.model_state_dict())

    def test_process_backend_matches_thread_backend(self):
        specs = [
            spec_for(True, parallel={"ranks": 2, "placement": "auto", "exec_backend": eb})
            for eb in ("thread", "process")
        ]
        thread, process = (make_trainer(s).fit() for s in specs)
        try:
            assert process.losses == thread.losses
            assert_states_equal(process.model_state_dict(), thread.model_state_dict())
        finally:
            process.close()


def placement_cell(placement: str) -> tuple[float, dict, list[int]]:
    """One step of an embedding-bound Zipf run on four ranks under
    ``placement`` (``auto`` tiered): modelled steps/s on the virtual
    clocks, the consolidated state, and the owners."""
    spec = {
        "name": f"sweep-{placement}",
        "model": {"config": "small", "seed": 4, "overrides": {
            "minibatch": 256, "global_minibatch": 256, "local_minibatch": 64,
            "lookups_per_table": 128, "embedding_dim": 128,
            "table_rows": [20000, 10000, 5000, 15000, 4000, 8000],
            "bottom_mlp": [16, 128], "top_mlp": [16, 1],
        }},
        "data": {"name": "criteo", "seed": 1},
        "parallel": {"ranks": 4, "placement": placement},
        "schedule": {"steps": 1},
    }
    if placement == "auto":
        spec["tiering"] = {"enabled": True, "hot_rows": 2048, "min_table_rows": 64}
    trainer = make_trainer(RunSpec.from_dict(spec))
    try:
        snap = trainer.dist.cluster.snapshot()
        trainer.fit(1)
        modelled = 1.0 / trainer.dist.cluster.elapsed_since(snap)
        return modelled, trainer.model_state_dict(), list(trainer.dist.owners)
    finally:
        trainer.close()


class TestPlacementSweep:
    """Placement moves tables between ranks and tiering moves rows inside
    them; the planner's ``auto`` is worth having only if the cost model
    prices its plan above both static placements."""

    @pytest.fixture(scope="class")
    def cells(self):
        return {p: placement_cell(p) for p in ("round_robin", "balanced", "auto")}

    def test_every_placement_trains_round_robins_bits(self, cells):
        assert cells["balanced"][2] != cells["round_robin"][2]  # tables move ...
        for placement in ("balanced", "auto"):  # ... rows too, the bits do not
            assert_states_equal(cells[placement][1], cells["round_robin"][1])

    @pytest.mark.parametrize("static", ["round_robin", "balanced"])
    def test_auto_models_more_steps_per_second(self, cells, static):
        # Virtual clocks: deterministic, so a plain bound (1.24x and
        # 1.26x when this test was written).
        assert cells["auto"][0] / cells[static][0] > 1.0


class TestCheckpointAndServe:
    def test_resume_is_bit_identical(self, tmp_path):
        spec = spec_for(True)
        straight = make_trainer(spec).fit(6)

        partial = make_trainer(spec).fit(3)
        path = tmp_path / "mid.npz"
        partial.save_checkpoint(path)
        resumed = Trainer.from_checkpoint(path)
        assert resumed.step == 3
        resumed.fit()  # the spec's remaining 3 steps
        assert_states_equal(resumed.model_state_dict(), straight.model_state_dict())
        assert_states_equal(opt_state(resumed), opt_state(straight))

    def test_serve_out_of_core_matches_flat_replica(self, tmp_path):
        spec = spec_for(True)
        trainer = make_trainer(spec).fit()
        path = tmp_path / "final.npz"
        trainer.save_checkpoint(path)

        engine = InferenceEngine.from_checkpoint(path)
        # the engine rebuilt the plan and split the same tables
        tiered = [
            t for t in engine.model.tables.values()
            if isinstance(t, TieredEmbeddingBag)
        ]
        assert tiered
        assert sum(capacity_bytes(t) for t in tiered) < sum(
            t.store.weight.nbytes for t in tiered
        )
        batch = trainer.eval_batch()
        np.testing.assert_array_equal(
            engine.predict(batch), trainer.predict_proba(batch)
        )
        flat = InferenceEngine(spec.build_model())
        flat.model.load_state_dict(trainer.model_state_dict())
        np.testing.assert_array_equal(engine.predict(batch), flat.predict(batch))

    def test_the_engine_loads_straight_onto_a_file_under_cold_dir(self, tmp_path):
        cold = tmp_path / "cold"
        spec = spec_for(True).with_overrides({"tiering.cold_dir": str(cold)})
        trainer = make_trainer(spec).fit(2)
        trainer.save_checkpoint(tmp_path / "final.npz")
        state = trainer.model_state_dict()
        trainer.close()
        del trainer
        assert not list(cold.iterdir())  # the trainer's own file went with it

        built = []
        real = DLRM.__init__

        def spy(self, *args, slab_alloc=None, **kw):
            built.append(slab_alloc)
            real(self, *args, slab_alloc=slab_alloc, **kw)

        with mock.patch.object(DLRM, "__init__", spy):
            engine = InferenceEngine.from_checkpoint(tmp_path / "final.npz")
        # Planned first: the one model it built got the file allocator,
        # so the tables never sat in anonymous memory.
        assert len(built) == 1 and built[0] is not None
        slab = engine.model.slab.weight
        assert type(slab) is np.ndarray
        (path,) = cold.iterdir()
        assert path.stat().st_size == slab.nbytes
        tiered = [t for t in engine.model.tables.values() if isinstance(t, TieredEmbeddingBag)]
        assert {cold_path(t) for t in tiered} == {str(path)}
        slab.base.flush()
        np.testing.assert_array_equal(np.fromfile(path, dtype=np.float32), slab.reshape(-1))
        for key, value in engine.model.state_dict().items():
            np.testing.assert_array_equal(value, state[key], err_msg=key)


class TestSlabMembership:
    """A tiered table never leaves its model's embedding slab: tiering
    permutes the table's slab rows and leaves a view behind, and a step
    is the flat model's step -- one ``slab.forward``, one fused update."""

    CFG = tiny_config(num_tables=4, rows=60, dim=8, lookups=4)
    TIERED = [(), (1, 2), (0, 1, 2, 3)]

    @staticmethod
    def plans(tables):
        return {
            t: types.SimpleNamespace(mode="hot_cold", hot_rows=np.arange(0, 60, 7) + t)
            for t in tables
        }

    def build(self, tiered_tables, cold_dir, optimizer="sgd", update="fused"):
        model = DLRM(self.CFG, seed=3)
        converted = apply_tiering(model, self.plans(tiered_tables), cold_dir=str(cold_dir))
        assert converted == sorted(tiered_tables)
        opt = (SparseAdagrad if optimizer == "adagrad" else SGD)(
            lr=0.05, strategy=make_strategy(update)
        )
        opt.register(model.parameters())
        return model, opt

    def train(self, model, opt, steps=6):
        return [
            model.train_step(random_batch(self.CFG, 16, seed=s, ragged=s % 3 == 2), opt)
            for s in range(steps)
        ]

    @pytest.mark.parametrize("tiered_tables", TIERED)
    def test_the_slab_still_serves_every_table(self, tmp_path, tiered_tables):
        model, _ = self.build(tiered_tables, tmp_path)
        untouched = DLRM(self.CFG, seed=3)
        assert model.slab.rows == 240 and type(model.slab.weight) is np.ndarray
        for t, table in model.tables.items():
            assert isinstance(table, TieredEmbeddingBag) == (t in tiered_tables)
            (rows,) = arrays(table)
            assert np.shares_memory(rows, model.slab.weight)
            np.testing.assert_array_equal(rows, model.slab.weight[60 * t : 60 * t + 60])
            np.testing.assert_array_equal(table.weight, untouched.tables[t].weight)
        # One file for the whole slab -- and none without a tiered table.
        files = [str(p) for p in tmp_path.iterdir()]
        assert len(files) == bool(tiered_tables)
        assert {cold_path(model.tables[t]) for t in tiered_tables} == set(files)

    @pytest.mark.parametrize("tiered_tables", TIERED)
    def test_a_step_is_one_slab_forward_and_one_fused_update(self, tmp_path, tiered_tables):
        model, opt = self.build(tiered_tables, tmp_path)
        forward, fused = EmbeddingBag.forward, FusedBackwardUpdate.apply_fused
        with mock.patch.object(
            EmbeddingBag, "forward", autospec=True, side_effect=forward
        ) as forwards, mock.patch.object(
            FusedBackwardUpdate, "apply_fused", autospec=True, side_effect=fused
        ) as updates, mock.patch.object(
            TieredEmbeddingBag, "gather", autospec=True, side_effect=TieredEmbeddingBag.gather
        ) as gathers:
            self.train(model, opt, steps=3)
        assert forwards.call_count == updates.call_count == 3 and not gathers.called
        assert all(call.args[0] is model.slab for call in forwards.call_args_list)
        assert all(call.args[1] is model.slab for call in updates.call_args_list)

    @pytest.mark.parametrize("tiered_tables", TIERED[1:])
    @pytest.mark.parametrize(
        "optimizer,update", [("sgd", "fused"), ("sgd", "racefree"), ("adagrad", "racefree")]
    )
    def test_a_tiered_model_trains_like_its_flat_twin(
        self, tmp_path, tiered_tables, optimizer, update
    ):
        model, opt = self.build(tiered_tables, tmp_path, optimizer, update)
        flat, flat_opt = self.build((), tmp_path, optimizer, update)
        assert self.train(model, opt) == self.train(flat, flat_opt)  # ragged and equal-length
        assert_states_equal(model.state_dict(), flat.state_dict())
        assert_states_equal(
            opt.state_dict(model.parameters(), model.tables),
            flat_opt.state_dict(flat.parameters(), flat.tables),
        )
        # The materialised SparseGrad branch, the other way into the same update.
        batch = random_batch(self.CFG, 16, seed=9)
        for m, o in ((model, opt), (flat, flat_opt)):
            o.strategy = make_strategy("reference")
            m.train_step(batch, o)
        assert_states_equal(model.state_dict(), flat.state_dict())
        for t, table in model.tables.items():  # still views, steps later
            assert np.shares_memory(arrays(table)[0], model.slab.weight)

    def test_a_model_built_on_its_file_equals_one_moved_onto_it(self, tmp_path):
        moved, _ = self.build((1, 2), tmp_path / "a")
        allocs = []

        def build(alloc):
            allocs.append(alloc)
            return DLRM(self.CFG, seed=3, slab_alloc=alloc)

        planned = build_tiered(build, self.plans((1, 2)), cold_dir=str(tmp_path / "b"))
        assert allocs != [None] and len(list((tmp_path / "b").iterdir())) == 1
        np.testing.assert_array_equal(planned.slab.weight, moved.slab.weight)
        assert_states_equal(planned.state_dict(), moved.state_dict())
        # Nothing to tier, nothing on a file.
        assert store._mapping_of(build_tiered(build, {}, cold_dir=str(tmp_path / "c")).slab.weight) is None
        assert allocs[-1] is None and not (tmp_path / "c").exists()

    def test_moving_the_slab_keeps_the_flat_views(self, tmp_path):
        model = DLRM(self.CFG, seed=3)
        before = dict(model.tables)
        apply_tiering(model, self.plans((1, 2)), cold_dir=str(tmp_path))
        for t in (0, 3):
            assert model.tables[t] is before[t] and type(before[t]) is EmbeddingBag
            assert np.shares_memory(before[t].weight, model.slab.weight)

    def test_the_file_goes_when_the_model_is_dropped(self, tmp_path):
        gc.collect()
        gc.disable()  # by reference count, not by whenever the cyclic GC next runs
        try:
            model, opt = self.build(range(4), tmp_path)
            self.train(model, opt, steps=2)
            (path,) = tmp_path.iterdir()
            table = model.tables[2]
            del model, opt
            assert path.exists()  # a tiered view alone keeps the mapping
            np.testing.assert_array_equal(table.gather(np.arange(3)), table.weight[:3])
            del table
            assert not path.exists()
        finally:
            gc.enable()


def parent_spec(ranks: int = 1) -> dict:
    """The spec ``tests/train/data/parent_tiered.npz`` was trained with."""
    spec = {
        "name": "tiered-parent",
        "model": {
            "config": "small",
            "overrides": {
                "table_rows": [200, 3, 150, 64],
                "embedding_dim": 8,
                "lookups_per_table": 5,
                "dense_features": 6,
                "bottom_mlp": [12, 8],
                "top_mlp": [16, 1],
            },
            "minibatch": 32,
            "seed": 4,
        },
        "data": {"name": "criteo", "seed": 1},
        "optimizer": {"name": "sgd", "lr": 0.05},
        "update": {"name": "fused"},
        "tiering": {
            "enabled": True, "hot_rows": 16, "min_table_rows": 64, "coverage_threshold": 0.05,
        },
        "schedule": {"steps": 10, "batch_size": 32, "eval_size": 32},
    }
    if ranks > 1:
        spec["parallel"] = {"ranks": ranks, "placement": "auto", "platform": "cluster"}
    return spec


class TestAgainstTheParentCommit:
    """``parent_tiered.npz`` was saved at step 5 by commit e374f0d, whose
    tiered tables were two-tier stores outside the slab;
    ``parent_tiered_expected.json`` holds what that commit reached five
    steps later and the rank clocks of its 2-rank run."""

    RECORDED = json.loads((DATA / "parent_tiered_expected.json").read_text())

    def test_its_checkpoint_resumes_into_a_tiered_model(self):
        path = DATA / "parent_tiered.npz"
        resumed = Trainer.from_checkpoint(path)
        assert resumed.step == 5 and resumed.spec.tiering.enabled
        tiered = [
            t for t, b in resumed.model.tables.items() if isinstance(b, TieredEmbeddingBag)
        ]
        assert tiered == [0, 2, 3]
        flat = make_trainer(resumed.spec.with_overrides({"tiering.enabled": False}))
        flat.load_checkpoint(path)
        assert flat.step == 5 and type(flat.model.tables[0]) is EmbeddingBag
        resumed.fit(5)
        flat.fit(5)
        assert resumed.losses == flat.losses
        assert_states_equal(resumed.model_state_dict(), flat.model_state_dict())
        assert_states_equal(opt_state(resumed), opt_state(flat))
        skip_unless_recorded_here(self.RECORDED["host"])
        want = self.RECORDED["expected"]
        assert [float(x).hex() for x in resumed.losses] == want["losses"]
        assert state_digest(resumed.model_state_dict()) == want["model"]
        assert state_digest(opt_state(resumed)) == want["optimizer"]

    def test_rank_clocks_are_the_parents_on_both_executors(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")
        pinned = self.RECORDED["rank_clocks"]
        spec = RunSpec.from_dict(parent_spec(pinned["ranks"]))
        inline = make_trainer(spec).fit(pinned["steps"])
        process = Trainer.from_spec(spec, backend="process", workers=2)
        try:
            process.fit(pinned["steps"])
            clocks = inline._executor.clocks()
            assert process._executor.clocks() == clocks
            assert process.losses == inline.losses
        finally:
            process.close()
        # The tier-aware charges only see hot_traffic_fraction, which is
        # a count over a count: exact whatever the layout behind it.
        assert clocks == pytest.approx([float.fromhex(c) for c in pinned["clocks"]], rel=1e-12)


def test_a_tiered_process_leaves_nothing_in_the_temp_dir(tmp_path):
    """Build on the defaulted cold dir, train one step, exit: neither
    the slab file nor ``repro-tiering-<pid>/`` may survive the process."""
    code = (
        "import json, sys\n"
        "from repro.train import RunSpec, make_trainer\n"
        "trainer = make_trainer(RunSpec.from_dict(json.loads(sys.argv[1]))).fit(1)\n"
        "print(trainer.model.tables[0]._file.filename)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(parent_spec())],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    assert Path(out.strip()).parent.parent == tmp_path  # it did live here
    assert list(tmp_path.iterdir()) == []
