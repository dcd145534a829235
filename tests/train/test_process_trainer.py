"""Trainer.from_spec(backend="process"): same bits as every other path.

The process-rank backend's contract: losses, consolidated checkpoints,
optimizer state and virtual clocks are bitwise identical to the
sequential and thread paths -- FP32 and Split-BF16, at any worker count
-- and checkpoints round-trip *across* backends (train under one,
resume under the other).
"""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from repro.train import RunSpec, load_checkpoint, make_trainer
from repro.train.trainer import Trainer

from tests.conftest import counting_cc, opt_state, pooled
from tests.train.test_trainer import tiny_spec


@pytest.fixture(autouse=True)
def _fork_context(monkeypatch):
    """fork keeps these tests fast; the spawn smoke test below opts out."""
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")


def dist_spec(storage: str = "fp32", steps: int = 4, **over) -> RunSpec:
    base = {
        "precision": {"storage": storage},
        "parallel": {"ranks": 4, "platform": "cluster"},
        "schedule": {"steps": steps, "batch_size": 64, "eval_size": 64},
    }
    if storage == "split_bf16":
        base["optimizer"] = {"name": "split_sgd", "lr": 0.05}
    base.update(over)
    return tiny_spec(**base)


def state_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.fixture(scope="module")
def fitted():
    """``fitted(storage)`` -> (sequential trainer, process trainer), both
    fit on ``dist_spec(storage)``: one spawn per storage for every test
    that only reads the finished runs.  Built on first use, inside a
    test, so the fork context applies.  FP32 asks for 4 workers and
    Split-BF16 for 2; both are capped at the host's cores."""
    built = {}

    def get(storage: str):
        if storage not in built:
            spec = dist_spec(storage)
            workers = 4 if storage == "fp32" else 2
            built[storage] = (
                make_trainer(spec).fit(),
                Trainer.from_spec(spec, backend="process", workers=workers).fit(),
            )
        return built[storage]

    yield get
    for _, proc in built.values():
        proc.close()


class TestProcessBitIdentity:
    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_fit_matches_sequential(self, storage, fitted):
        sequential, proc = fitted(storage)
        assert proc.losses == sequential.losses
        assert state_equal(proc.model_state_dict(), sequential.dist.state_dict())
        assert state_equal(opt_state(proc), sequential.dist.optimizer_state_dict())
        assert proc._executor.clocks() == sequential.dist.cluster.snapshot()

    def test_fit_matches_thread_pool(self, fitted):
        spec = dist_spec()
        with pooled(4):
            thread = make_trainer(spec).fit()
        _, proc = fitted("fp32")
        assert proc.losses == thread.losses
        assert state_equal(proc.model_state_dict(), thread.dist.state_dict())

    def test_predict_and_evaluate_parity(self, fitted):
        # Both sides predict the same number of times, so their clocks
        # stay level for whichever test reads them next.
        sequential, proc = fitted("fp32")
        assert np.array_equal(
            proc.predict_proba(proc.eval_batch()),
            sequential.predict_proba(sequential.eval_batch()),
        )
        assert proc.evaluate() == sequential.evaluate()

    def test_lr_schedule_rides_the_pipe(self):
        """Callback-driven lr changes reach the workers step by step."""
        schedule = {
            "steps": 4,
            "batch_size": 64,
            "eval_size": 64,
            "lr_schedule": {"name": "warmup_decay", "peak_lr": 0.2, "warmup_steps": 2},
        }
        spec = dist_spec(schedule=schedule)
        sequential = make_trainer(spec).fit()
        proc = Trainer.from_spec(spec, backend="process", workers=2)
        try:
            proc.fit()
            assert proc.losses == sequential.losses
            assert state_equal(proc.model_state_dict(), sequential.dist.state_dict())
        finally:
            proc.close()


class TestCrossBackendCheckpoints:
    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_thread_to_process_resume(self, storage, tmp_path):
        spec = dist_spec(storage, steps=6)
        full = make_trainer(spec).fit()
        half = make_trainer(spec).fit(3)
        half.save_checkpoint(tmp_path / "half.npz")
        resumed = Trainer.from_checkpoint(
            tmp_path / "half.npz", backend="process", workers=2
        )
        try:
            resumed.fit(3)
            assert resumed.step == full.step
            assert resumed.losses == full.losses[3:]
            assert state_equal(resumed.model_state_dict(), full.dist.state_dict())
            assert state_equal(
                opt_state(resumed), full.dist.optimizer_state_dict()
            )
        finally:
            resumed.close()

    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_process_to_thread_resume(self, storage, tmp_path):
        spec = dist_spec(storage, steps=6)
        full = make_trainer(spec).fit()
        half = Trainer.from_spec(spec, backend="process", workers=2)
        try:
            half.fit(3)
            half.save_checkpoint(tmp_path / "half.npz")
        finally:
            half.close()
        resumed = Trainer.from_checkpoint(tmp_path / "half.npz")
        assert resumed.backend == "thread"
        resumed.fit(3)
        assert resumed.step == full.step
        assert resumed.losses == full.losses[3:]
        assert state_equal(resumed.dist.state_dict(), full.dist.state_dict())

    def test_checkpoint_files_equivalent(self, tmp_path):
        """A process-backend checkpoint equals the thread-backend one."""
        spec = dist_spec(steps=3)
        thread = make_trainer(spec).fit()
        thread.save_checkpoint(tmp_path / "thread.npz")
        proc = Trainer.from_spec(spec, backend="process", workers=2)
        try:
            proc.fit()
            proc.save_checkpoint(tmp_path / "process.npz")
        finally:
            proc.close()
        a = load_checkpoint(tmp_path / "thread.npz")
        b = load_checkpoint(tmp_path / "process.npz")
        assert a.step == b.step
        assert state_equal(a.model_state, b.model_state)
        assert state_equal(a.opt_state, b.opt_state)


class TestSpecPlumbing:
    def test_exec_backend_round_trips_json(self):
        spec = dist_spec()
        spec = dataclasses.replace(
            spec,
            parallel=dataclasses.replace(
                spec.parallel, exec_backend="process", exec_workers=2
            ),
        )
        back = RunSpec.from_json(spec.to_json())
        assert back.parallel.exec_backend == "process"
        assert back.parallel.exec_workers == 2

    def test_exec_backend_validated(self):
        with pytest.raises(ValueError, match="exec_backend"):
            dist_spec(parallel={"ranks": 4, "exec_backend": "greenlet"})
        with pytest.raises(ValueError, match="ranks >= 2"):
            tiny_spec(parallel={"ranks": 1, "exec_backend": "process"})

    def test_make_trainer_honours_spec_backend(self):
        spec = dist_spec(steps=2)
        spec = dataclasses.replace(
            spec,
            parallel=dataclasses.replace(
                spec.parallel, exec_backend="process", exec_workers=2
            ),
        )
        trainer = make_trainer(spec)
        try:
            assert isinstance(trainer, Trainer)
            assert trainer.backend == "process"
            assert trainer._executor is not None
            trainer.fit()
            reference = make_trainer(dist_spec(steps=2)).fit()
            assert trainer.losses == reference.losses
        finally:
            trainer.close()


class TestReplyDeadline:
    """``resilience.heartbeat_timeout`` is the deadline the executor
    enforces on every worker reply."""

    def test_a_hang_past_the_specs_deadline_is_a_typed_timeout(self):
        from repro.resilience.errors import WorkerTimeout

        spec = dist_spec(
            resilience={
                "heartbeat_timeout": 30.0,
                "faults": "worker.step:step=1,worker=0,action=hang,seconds=3",
            }
        )
        trainer = Trainer.from_spec(spec, backend="process", workers=2)
        try:
            executor = trainer._executor
            assert executor._timeout == 30.0  # the spec reached the executor
            # Worker start-up and a healthy step take as long as the host
            # lets them (start-up alone missed a one-second deadline with
            # nproc + 1 busy loops beside it): they run under the spec's
            # generous deadline, only the faulted step under one second,
            # which a three-second hang misses however loaded the host is.
            trainer.fit(1)
            executor._timeout = 1.0
            with pytest.raises(WorkerTimeout, match="no reply within 1s"):
                trainer.fit(1)
            assert trainer.step == 1  # the hang was step 1's, not step 0's
        finally:
            trainer.close()


class TestSpawnSmoke:
    def test_spawn_start_method(self, monkeypatch, tmp_path):
        """The portable default start method works end to end (slow:
        workers re-import the world).  The workers load the native
        kernel tier from a warm cache without compiling: ``CC`` is a
        wrapper that counts its calls, and one process warms the cache
        under that name before any worker starts."""
        monkeypatch.delenv("REPRO_MP_CONTEXT", raising=False)
        cc, calls = counting_cc(tmp_path)
        monkeypatch.setenv("CC", cc)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        warm = subprocess.run(
            [sys.executable, "-c", "from repro.kernels import native; print(native.tier())"],
            capture_output=True, text=True, check=True,
        )
        warmed = warm.stdout.strip() == "native"  # else: no compiler here, nothing to count
        assert not warmed or calls.read_text() == "x\n"
        spec = dist_spec(steps=2)
        sequential = make_trainer(spec).fit()
        proc = Trainer.from_spec(spec, backend="process", workers=2)
        try:
            assert proc._executor is not None
            proc.fit()
            assert proc.losses == sequential.losses
        finally:
            proc.close()
        assert not warmed or calls.read_text() == "x\n"
