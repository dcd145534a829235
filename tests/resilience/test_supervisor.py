"""Restarting recovery is lossless: bit-exact replay across backends.

The acceptance pin of the resilience subsystem: kill/crash a run at a
seeded step, let ``Trainer.fit`` respawn + restore + replay, and the
finished run's loss stream and checkpoint bytes are bitwise identical
to an uninterrupted run's.
"""

import numpy as np
import pytest

from repro.resilience.errors import InjectedFault, WorkerCrash
from repro.resilience.ring import CheckpointRing
from repro.train import RunSpec, Trainer, load_checkpoint


@pytest.fixture(autouse=True)
def _fork_context(monkeypatch):
    # The process-backend cases fork (fast, accepts test-local state).
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")


def chaos_spec(tmp_path, tag: str, faults: str = "", ranks: int = 1, **res) -> RunSpec:
    base_res = {
        "faults": faults,
        "ring_dir": str(tmp_path / f"ring-{tag}"),
        "ring_every": 2,
        "ring_keep": 10,
        "max_restarts": 2,
    }
    base_res.update(res)
    return RunSpec.from_dict(
        {
            "name": f"chaos-{tag}",
            "model": {"config": "small", "rows_cap": 200, "minibatch": 16, "seed": 3},
            "data": {"name": "random", "seed": 5},
            "optimizer": {"name": "sgd", "lr": 0.05},
            "parallel": {"ranks": ranks, "platform": "cluster"},
            "resilience": base_res,
            "schedule": {"steps": 8, "batch_size": 32, "eval_size": 32},
        }
    )


def run_supervised(spec: RunSpec, backend=None, workers=None):
    """(the closed trainer, its ring's newest checkpoint or None) of a
    full ``fit`` of ``spec``."""
    trainer = Trainer.from_spec(spec, backend=backend, workers=workers)
    try:
        trainer.fit()
    finally:
        trainer.close()
    entries = CheckpointRing.of(spec).entries()
    return trainer, load_checkpoint(entries[-1]) if entries else None


def run_failing(spec: RunSpec, error, backend=None, workers=None):
    """The closed trainer of a ``fit`` that raises ``error``, and the
    raised error's info."""
    trainer = Trainer.from_spec(spec, backend=backend, workers=workers)
    try:
        with pytest.raises(error) as err:
            trainer.fit()
    finally:
        trainer.close()
    return trainer, err


def assert_states_bitwise_equal(a, b):
    """Model + optimizer arrays of two checkpoints are bit-identical.

    (Raw file bytes differ only in the embedded spec -- the runs carry
    different names and fault plans by construction.)"""
    for left, right in ((a.model_state, b.model_state), (a.opt_state, b.opt_state)):
        assert set(left) == set(right)
        for key in left:
            assert left[key].dtype == right[key].dtype
            assert np.array_equal(left[key], right[key]), key
    assert a.step == b.step


class TestSingleProcess:
    def test_injected_crash_recovers_bit_exactly(self, tmp_path):
        clean, clean_bytes = run_supervised(chaos_spec(tmp_path, "clean"))
        chaos, chaos_bytes = run_supervised(
            chaos_spec(tmp_path, "crash", faults="train.step:step=5,action=raise")
        )
        assert clean.restarts == 0
        assert chaos.restarts == 1
        assert chaos.losses == clean.losses
        assert_states_bitwise_equal(chaos_bytes, clean_bytes)
        kinds = [e["event"] for e in chaos.events]
        assert kinds == ["failure", "respawn", "restore"]

    def test_corrupt_checkpoint_falls_back_one_entry(self, tmp_path):
        clean, clean_bytes = run_supervised(chaos_spec(tmp_path, "c0"))
        # Step 6's checkpoint is corrupted as written; the step-7 crash
        # then has to restore from step 4 and replay further back.
        chaos, chaos_bytes = run_supervised(
            chaos_spec(
                tmp_path,
                "c1",
                faults="ckpt.save:step=6,action=corrupt;train.step:step=7,action=raise",
            )
        )
        assert chaos.restarts == 1
        restore = [e for e in chaos.events if e["event"] == "restore"][0]
        assert restore["step"] == 4
        assert chaos.losses == clean.losses
        assert_states_bitwise_equal(chaos_bytes, clean_bytes)
        # Replay re-wrote a good step-6 entry past the quarantined one.
        ring = tmp_path / "ring-c1"
        assert (ring / "ckpt-00000006.npz").exists()
        assert (ring / "ckpt-00000006.npz.corrupt").exists()

    def test_recovery_without_ring_restarts_from_zero(self, tmp_path):
        clean, _ = run_supervised(chaos_spec(tmp_path, "nr0", ring_every=2))
        chaos, _ = run_supervised(
            chaos_spec(
                tmp_path,
                "nr1",
                faults="train.step:step=5,action=raise",
                ring_every=0,
            )
        )
        assert chaos.restarts == 1
        restore = [e for e in chaos.events if e["event"] == "restore"][0]
        assert restore["step"] == 0 and restore["path"] is None
        assert chaos.losses == clean.losses

    def test_max_restarts_exhaustion_raises(self, tmp_path):
        spec = chaos_spec(
            tmp_path,
            "give-up",
            faults="train.step:step=1,action=raise;train.step:step=2,action=raise",
            max_restarts=1,
        )
        trainer, _ = run_failing(spec, InjectedFault)
        assert [e["event"] for e in trainer.events][-1] == "gave_up"

    def test_early_stopping_counts_a_replayed_eval_once(self, tmp_path):
        early = {
            "schedule.eval_every": 1,
            "schedule.early_stop": {"monitor": "auc", "patience": 3},
            "schedule.steps": 40,
        }
        clean, _ = run_supervised(chaos_spec(tmp_path, "es0").with_overrides(early))
        chaos, _ = run_supervised(
            chaos_spec(
                tmp_path, "es1", faults="train.step:step=3,action=raise", ring_every=0
            ).with_overrides(early)
        )
        assert clean.step < 40 and chaos.step == clean.step
        assert chaos.losses == clean.losses

    def test_a_ring_seeded_by_another_run_is_not_restored(self, tmp_path):
        """A longer run with another lr left ckpt-8/10/12 in the shared
        directory: the saves evict them rather than the run's own
        entries, and the step-5 crash restores the run's own step 4."""
        shared = {"ring_dir": str(tmp_path / "shared"), "ring_keep": 3}
        other = chaos_spec(tmp_path, "other", **shared)
        run_supervised(other.with_overrides({"schedule.steps": 12}))
        lr = {"optimizer.lr": 0.1}
        clean, clean_bytes = run_supervised(chaos_spec(tmp_path, "fresh").with_overrides(lr))
        chaos, chaos_bytes = run_supervised(
            chaos_spec(
                tmp_path, "stale", faults="train.step:step=5,action=raise", **shared
            ).with_overrides(lr)
        )
        restore = [e for e in chaos.events if e["event"] == "restore"][0]
        assert restore["step"] == 4
        assert len(chaos.losses) == 8 and chaos.losses == clean.losses
        assert_states_bitwise_equal(chaos_bytes, clean_bytes)


class TestThreadBackend:
    def test_distributed_crash_recovers_bit_exactly(self, tmp_path):
        clean, clean_bytes = run_supervised(
            chaos_spec(tmp_path, "t0", ranks=2), backend="thread"
        )
        chaos, chaos_bytes = run_supervised(
            chaos_spec(
                tmp_path, "t1", faults="train.step:step=5,action=raise", ranks=2
            ),
            backend="thread",
        )
        assert chaos.restarts == 1
        assert chaos.losses == clean.losses
        assert_states_bitwise_equal(chaos_bytes, clean_bytes)


class TestProcessBackend:
    def test_worker_kill_recovers_bit_exactly(self, tmp_path):
        """A worker os._exit mid-run: the parent's liveness poll turns
        the silent barrier stall into a typed WorkerCrash, and recovery
        replays to the identical bits.  (The executor caps workers at
        host cores, so the fault targets worker 0 -- the only worker
        that is guaranteed to exist.)"""
        clean, clean_bytes = run_supervised(
            chaos_spec(tmp_path, "p0", ranks=2), backend="process", workers=2
        )
        spec = chaos_spec(
            tmp_path,
            "p1",
            faults="worker.step:step=4,worker=0,action=kill",
            ranks=2,
        )
        report, chaos_ckpt = run_supervised(spec, backend="process", workers=2)
        assert report.restarts == 1
        failure = [e for e in report.events if e["event"] == "failure"][0]
        assert failure["worker_index"] == 0
        assert failure["rank_range"] is not None
        assert report.losses == clean.losses
        assert_states_bitwise_equal(chaos_ckpt, clean_bytes)

    def test_failure_diagnostics_are_typed(self, tmp_path):
        spec = chaos_spec(
            tmp_path,
            "diag",
            faults="worker.step:step=2,worker=0,action=kill",
            ranks=2,
            max_restarts=0,
        )
        _, err = run_failing(spec, WorkerCrash, backend="process", workers=2)
        diag = err.value.diagnostics()
        assert diag["worker_index"] == 0
        assert diag["error"] == "WorkerCrash"
