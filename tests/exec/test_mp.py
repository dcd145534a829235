"""The process-rank substrate: shared-memory primitives + worker lifecycle.

Bit-identity of whole training runs lives in
``tests/train/test_process_trainer.py``; this file covers the plumbing:
mailbox/arena round trips, the executor's command surface, crash
propagation, the nested-use guard, the worker cap, and orphan reaping
when the parent dies mid-step.

Most tests use the ``fork`` start method (fast, accepts test-local
factories); the spawn path is exercised by the dedicated smoke test in
the trainer suite.
"""

import os
import pickle
import subprocess
import sys
import textwrap
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exec.executor import InlineRankExecutor
from repro.exec.mp import ProcessRankExecutor, in_worker_process
from repro.exec.shm import _PINNED, MailboxOverflow, ShmArena, ShmMailbox
from repro.obs import Tracer, set_tracer
from repro.obs.tracer import trace
from repro.resilience.errors import WorkerCrash
from repro.resilience.faults import FaultPlan
from repro.resilience.heartbeat import HeartbeatBoard
from repro.train import RunSpec
from repro.train.trainer import Trainer

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(autouse=True)
def _fork_context(monkeypatch):
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")


def own_segments() -> list[str]:
    """Shared-memory segments under this process's executor prefix."""
    prefix = f"rpx{os.getpid() % 0xFFFFF:05x}"
    return sorted(name for name in os.listdir("/dev/shm") if name.startswith(prefix))


def tiny_spec(**over) -> RunSpec:
    base = {
        "model": {"config": "small", "rows_cap": 200, "minibatch": 16, "seed": 3},
        "data": {"name": "random", "seed": 5},
        "optimizer": {"name": "sgd", "lr": 0.05},
        "parallel": {"ranks": 2, "platform": "cluster"},
        "schedule": {"steps": 2, "batch_size": 32, "eval_size": 32},
    }
    base.update(over)
    return RunSpec.from_dict(base)


_LAYOUT = ShmArena.layout_for({"w": np.zeros((4, 4), dtype=np.float32)})


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="POSIX shm mount required")
@pytest.mark.parametrize(
    "kind,spec,view_of",
    [
        (ShmArena, (_LAYOUT,), lambda block: block.views()["w"]),
        (ShmMailbox, (1 << 12,), lambda block: block.publish(np.arange(8.0), 1) or block.read(1)),
        (HeartbeatBoard, (3,), lambda block: block._grid),
    ],
    ids=["arena", "mailbox", "heartbeat"],
)
def test_shm_block_lifecycle(kind, spec, view_of):
    """One lifecycle under all three kinds: a unique short name, attach
    by name, close with a live exported view pins instead of raising,
    only the owner's unlink removes the segment."""
    owner, pinned = kind.create_unique("x9", *spec), len(_PINNED)
    try:
        assert owner.name in own_segments() and len(owner.name) + 1 <= 31  # + the leading "/"
        peer = kind(owner.name, *spec)
        held = [view_of(owner), view_of(peer)]
        peer.close()  # a live view into each mapping: neither close raises
        peer.unlink()  # not the owner: a no-op
        assert owner.name in own_segments()
        owner.close()
        assert len(_PINNED) == pinned + 2  # both mappings outlive their blocks ...
        assert all(np.isfinite(np.asarray(view)).all() for view in held)  # ... and stay readable
    finally:
        owner.unlink()
    assert owner.name not in own_segments()
    owner.unlink()  # already gone: still quiet


class TestShmMailbox:
    def test_round_trip_mixed_payload(self):
        box = ShmMailbox("tmb-rt", 1 << 20, create=True)
        try:
            obj = (
                {0: np.arange(12, dtype=np.float32).reshape(3, 4)},
                {1: 2.5},
                [(3, 0), (7, 1)],
            )
            box.publish(obj, 1)
            out = box.read(1)
            assert np.array_equal(out[0][0], obj[0][0])
            assert out[1] == {1: 2.5} and out[2] == [(3, 0), (7, 1)]
        finally:
            box.close()
            box.unlink()

    def test_double_buffer_rounds(self):
        """Round k's data survives round k+1 (parity slots)."""
        box = ShmMailbox("tmb-db", 1 << 16, create=True)
        try:
            a = np.full(64, 1.0, dtype=np.float64)
            b = np.full(64, 2.0, dtype=np.float64)
            box.publish(a, 1)
            first = box.read(1)
            box.publish(b, 2)
            assert np.array_equal(first, a)  # still intact in the odd slot
            assert np.array_equal(box.read(2), b)
        finally:
            box.close()
            box.unlink()

    def test_reads_are_readonly_views(self):
        box = ShmMailbox("tmb-ro", 1 << 16, create=True)
        try:
            box.publish(np.arange(8, dtype=np.float32), 1)
            out = box.read(1)
            assert not out.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                out[0] = 99.0
        finally:
            box.close()
            box.unlink()

    def test_sequence_guard(self):
        box = ShmMailbox("tmb-seq", 1 << 16, create=True)
        try:
            box.publish([1, 2, 3], 1)
            with pytest.raises(RuntimeError, match="out of sync"):
                box.read(3)
        finally:
            box.close()
            box.unlink()

    def test_overflow_is_loud(self):
        box = ShmMailbox("tmb-ovf", 1 << 12, create=True)
        try:
            with pytest.raises(MailboxOverflow, match="REPRO_MP_MAILBOX_MB"):
                box.publish(np.zeros(1 << 16, dtype=np.float64), 1)
        finally:
            box.close()
            box.unlink()


class TestShmArena:
    def test_round_trip_state_dict(self):
        state = {
            "w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "lr": np.float64(0.05),
            "lo": np.arange(4, dtype=np.uint16),
        }
        layout = ShmArena.layout_for(state)
        arena = ShmArena("tma-rt", layout, create=True)
        try:
            arena.write(state)
            peer = ShmArena("tma-rt", layout)
            back = peer.read()
            assert set(back) == set(state)
            for key in state:
                assert np.array_equal(back[key], np.asarray(state[key]))
            # Writes land in shared bytes: the creator sees them live.
            peer.views()["w"][0, 0] = 42.0
            assert arena.views()["w"][0, 0] == 42.0
            peer.close()
        finally:
            arena.close()
            arena.unlink()

    def test_shape_drift_rejected(self):
        state = {"w": np.zeros((2, 2), dtype=np.float32)}
        arena = ShmArena("tma-drift", ShmArena.layout_for(state), create=True)
        try:
            with pytest.raises(ValueError, match="shape/dtype"):
                arena.write({"w": np.zeros((2, 3), dtype=np.float32)})
        finally:
            arena.close()
            arena.unlink()


def build_dist(spec: RunSpec):
    from repro.parallel.cluster import SimCluster
    from repro.parallel.hybrid import DistributedDLRM

    cfg = spec.build_config()
    cluster = SimCluster(
        spec.parallel.ranks, platform=spec.parallel.platform, backend=spec.parallel.backend
    )
    dist = DistributedDLRM(
        cfg, cluster, seed=spec.model.seed, storage=spec.precision.storage
    )
    dist.attach_optimizers(spec.build_optimizer)
    return dist, spec.build_dataset(cfg)


@pytest.fixture(scope="module")
def stepped():
    """One executor for the assertions that only read it (or put back
    what they change), beside a sequential reference stepped with it.
    Built on first use, inside a test, so the fork context applies; what
    a later test could move (clocks) is recorded here."""
    built = []

    def get() -> SimpleNamespace:
        if not built:
            dist, dataset = build_dist(tiny_spec())
            ref_dist, ref_data = build_dist(tiny_spec())
            executor = ProcessRankExecutor(dist, dataset, batch_size=32, workers=64)
            built.append(
                SimpleNamespace(
                    executor=executor,
                    ref_dist=ref_dist,
                    ref_data=ref_data,
                    losses=[executor.step(i, lr=0.05) for i in range(2)],
                    ref_losses=[ref_dist.train_step(ref_data.batch(32, i)) for i in range(2)],
                    clocks=executor.clocks(),
                    ref_clocks=ref_dist.cluster.snapshot(),
                )
            )
        return built[0]

    yield get
    for shared in built:
        shared.executor.close()


class TestExecutor:
    def test_step_predict_state_parity(self, stepped):
        shared = stepped()
        executor, ref_dist = shared.executor, shared.ref_dist
        assert shared.losses == shared.ref_losses
        batch = shared.ref_data.batch(32, 10_000)
        assert np.array_equal(executor.predict(batch), ref_dist.predict_proba(batch))
        model_state, opt_state = executor.state_dicts()
        ref_model = ref_dist.state_dict()
        assert set(model_state) == set(ref_model)
        assert all(np.array_equal(model_state[k], ref_model[k]) for k in ref_model)
        ref_opt = ref_dist.optimizer_state_dict()
        assert set(opt_state) == set(ref_opt)
        assert all(np.array_equal(opt_state[k], ref_opt[k]) for k in ref_opt)
        assert shared.clocks == shared.ref_clocks

    def test_load_state_round_trip(self, stepped):
        executor = stepped().executor
        model_state, opt_state = executor.state_dicts()
        executor.step(2, lr=0.05)
        executor.load_state(model_state, opt_state)
        back, back_opt = executor.state_dicts()
        assert all(np.array_equal(back[k], model_state[k]) for k in model_state)
        assert all(np.array_equal(back_opt[k], opt_state[k]) for k in opt_state)

    def test_worker_cap(self, stepped):
        # Asked for 64: capped at ranks and host cores, like the thread pool.
        assert stepped().executor.n_workers <= min(2, os.cpu_count() or 2)

    @pytest.mark.parametrize(
        "storage,optimizer",
        [
            ("fp32", {"name": "sgd", "lr": 0.05, "kwargs": {"momentum": 0.9}}),
            ("split_bf16", {"name": "split_sgd", "lr": 0.05}),
        ],
        ids=["fp32", "split_bf16"],
    )
    def test_load_state_without_optimizer_state_leaves_it_alone(self, storage, optimizer):
        """Model and optimizer state share one arena per rank: restoring
        the model half must not touch the other."""
        spec = tiny_spec(precision={"storage": storage}, optimizer=optimizer)
        dist, dataset = build_dist(spec)
        executor = ProcessRankExecutor(dist, dataset, batch_size=32, workers=2)
        try:
            executor.step(0, lr=None)
            old_model, old_opt = executor.state_dicts()
            executor.step(1, lr=None)
            _, new_opt = executor.state_dicts()
            assert any(not np.array_equal(old_opt[k], new_opt[k]) for k in new_opt)
            executor.load_state(old_model)
            model, opt = executor.state_dicts()
            assert set(model) == set(old_model) and set(opt) == set(new_opt)
            assert all(np.array_equal(model[k], old_model[k]) for k in model)
            assert all(np.array_equal(opt[k], new_opt[k]) for k in opt)
        finally:
            executor.close()

    def test_worker_crash_propagates_with_traceback(self):
        spec = tiny_spec()
        dist, dataset = build_dist(spec)

        class Exploding:
            def __init__(self, inner):
                self.inner = inner

            def batch(self, n, index=0):
                if index >= 1:
                    raise RuntimeError("boom at index %d" % index)
                return self.inner.batch(n, index)

        executor = ProcessRankExecutor(dist, Exploding(dataset), batch_size=32, workers=2)
        executor.step(0, lr=0.05)
        with pytest.raises(RuntimeError, match="boom at index 1"):
            executor.step(1, lr=0.05)
        # The failed executor tore itself down.
        assert executor._closed
        for pid in worker_pids(executor):
            _wait_gone(pid, timeout=10.0)

    def test_close_is_idempotent_and_reaps(self):
        spec = tiny_spec()
        dist, dataset = build_dist(spec)
        executor = ProcessRankExecutor(dist, dataset, batch_size=32, workers=2)
        pids = worker_pids(executor)
        executor.step(0, lr=0.05)
        executor.close()
        executor.close()
        for pid in pids:
            _wait_gone(pid, timeout=10.0)


    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="POSIX shm mount required")
    @pytest.mark.parametrize("where", ["build", "command"])
    def test_a_worker_failure_is_a_typed_crash_with_its_traceback(self, where):
        """Build-time and command-time failures take one path: barrier
        abort, traceback on the pipe, typed at the parent, nothing left
        in shared memory."""
        spec = tiny_spec()
        dist, dataset = build_dist(spec)
        before = own_segments()
        if where == "build":

            def factory():
                if in_worker_process():
                    raise RuntimeError("boom while building")
                return spec.build_optimizer()

            dist.attach_optimizers(factory)
            with pytest.raises(WorkerCrash, match="worker startup") as err:
                ProcessRankExecutor(dist, dataset, batch_size=32, workers=2)
            assert "boom while building" in err.value.worker_traceback
        else:
            plan = FaultPlan.parse("worker.step:step=0,worker=0,action=raise")
            executor = ProcessRankExecutor(dist, dataset, batch_size=32, workers=2, faults=plan)
            with pytest.raises(WorkerCrash, match="train step") as err:
                executor.step(0, lr=0.05)
            assert "InjectedFault" in err.value.worker_traceback
            assert executor._closed
        assert "Traceback (most recent call last)" in err.value.worker_traceback
        assert err.value.worker_index == 0 and err.value.rank_range == (0, 1)
        assert own_segments() == before

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="POSIX shm mount required")
    @pytest.mark.parametrize("variable", ["REPRO_MP_MAILBOX_MB"])
    def test_a_malformed_environment_value_names_its_variable(self, monkeypatch, variable):
        monkeypatch.setenv(variable, "soon")
        dist, dataset = build_dist(tiny_spec())
        before = own_segments()
        with pytest.raises(ValueError, match=f"{variable} must be .* got 'soon'"):
            ProcessRankExecutor(dist, dataset, batch_size=32, workers=2)
        assert own_segments() == before

    def test_a_trace_drain_has_no_size_limit(self):
        """Each worker holds more spans than the 16 MiB trace mailbox
        slot of old could carry; the pipe returns them all, merged."""
        spec = tiny_spec()
        dist, dataset = build_dist(spec)

        class Chatty:
            def __init__(self, inner):
                self.inner = inner

            def batch(self, n, index=0):
                if index == 0:
                    for i in range(9000):
                        with trace("pad", blob=f"{i:02048d}"):
                            pass
                return self.inner.batch(n, index)

        set_tracer(Tracer(proc="main"))
        try:
            executor = ProcessRankExecutor(dist, Chatty(dataset), batch_size=32, workers=2)
        finally:
            set_tracer(None)
        try:
            executor.step(0, lr=0.05)
            spans = executor.drain_traces()
        finally:
            executor.close()
        per_worker: dict[str, list] = {}
        for span in spans:
            if span["name"] == "pad":
                per_worker.setdefault(span["proc"], []).append(span)
        assert len(per_worker) == executor.n_workers
        blobs = [f"{i:02048d}" for i in range(9000)]
        for drained in per_worker.values():
            assert sorted(s["args"]["blob"] for s in drained) == blobs
            assert len(pickle.dumps(drained)) > 16 << 20
        keys = [(s["ts"], s["depth"]) for s in spans]
        assert keys == sorted(keys)


class TestNestedGuard:
    def test_in_worker_process_flag(self, monkeypatch):
        assert not in_worker_process()
        monkeypatch.setenv("_REPRO_MP_WORKER", "1")
        assert in_worker_process()

    def test_executor_refuses_nested_use(self, monkeypatch):
        monkeypatch.setenv("_REPRO_MP_WORKER", "1")
        spec = tiny_spec()
        with pytest.raises(RuntimeError, match="nested process backend"):
            dist, dataset = build_dist(spec)
            ProcessRankExecutor(dist, dataset, batch_size=32)

    def test_trainer_degrades_to_thread(self, monkeypatch):
        monkeypatch.setenv("_REPRO_MP_WORKER", "1")
        trainer = Trainer.from_spec(tiny_spec(), backend="process")
        assert trainer.backend == "thread"
        assert isinstance(trainer._executor, InlineRankExecutor)
        trainer.fit(1)


class TestTypedFailures:
    """Fault-injected failures surface as the typed taxonomy of
    :mod:`repro.resilience.errors`, with per-worker diagnostics."""

    def test_hang_becomes_typed_timeout(self):
        from repro.resilience.errors import WorkerTimeout
        from repro.resilience.faults import FaultPlan

        dist, dataset = build_dist(tiny_spec())
        plan = FaultPlan.parse("worker.step:step=1,worker=0,action=hang,seconds=4")
        executor = ProcessRankExecutor(
            dist, dataset, batch_size=32, workers=2, faults=plan
        )
        try:
            # Start-up and the healthy step run under the default
            # deadline, only the hung step under one second.
            executor.step(0, lr=0.05)
            executor._timeout = 1.0
            with pytest.raises(WorkerTimeout, match="no reply within") as err:
                executor.step(1, lr=0.05)
            assert err.value.worker_index == 0
            assert err.value.rank_range[0] == 0
            assert err.value.alive is True  # hung, not dead
            assert err.value.heartbeat_age is not None
            assert err.value.heartbeat_age >= 0.0
        finally:
            executor.close()

    def test_kill_becomes_typed_crash(self):
        from repro.resilience.errors import WorkerCrash
        from repro.resilience.faults import FaultPlan

        dist, dataset = build_dist(tiny_spec())
        plan = FaultPlan.parse("worker.step:step=1,worker=0,action=kill")
        executor = ProcessRankExecutor(
            dist, dataset, batch_size=32, workers=2, faults=plan
        )
        executor.step(0, lr=0.05)
        with pytest.raises(WorkerCrash, match="died") as err:
            executor.step(1, lr=0.05)
        assert err.value.worker_index == 0
        assert executor._closed
        for pid in worker_pids(executor):
            _wait_gone(pid, timeout=10.0)

    def test_heartbeats_visible_to_parent(self):
        dist, dataset = build_dist(tiny_spec())
        executor = ProcessRankExecutor(dist, dataset, batch_size=32, workers=2)
        try:
            executor.step(0, lr=0.05)
            beats = executor._heartbeats.snapshot()
            assert len(beats) == executor.n_workers
            for b in beats:
                assert b["age_s"] is not None and b["age_s"] >= 0.0
                assert b["step"] == 0
        finally:
            executor.close()

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shm mount required"
    )
    def test_no_shm_leaks_after_worker_kill(self):
        from repro.resilience.faults import FaultPlan

        before = set(os.listdir("/dev/shm"))
        dist, dataset = build_dist(tiny_spec())
        plan = FaultPlan.parse("worker.step:step=1,worker=0,action=kill")
        executor = ProcessRankExecutor(
            dist, dataset, batch_size=32, workers=2, faults=plan
        )
        executor.step(0, lr=0.05)
        with pytest.raises(RuntimeError):
            executor.step(1, lr=0.05)
        assert executor._closed  # the failure path tore down + unlinked
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"leaked shm blocks: {sorted(leaked)}"


def worker_pids(executor: ProcessRankExecutor) -> list[int]:
    return [proc.pid for proc in executor._procs if proc.pid is not None]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign pid
        return True
    return True


def _wait_gone(pid: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _alive(pid):
            return
        # Reap zombies of our own children so os.kill stops seeing them.
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        time.sleep(0.2)
    raise AssertionError(f"worker {pid} still alive after {timeout}s")


ORPHAN_SCRIPT = textwrap.dedent(
    """
    import os, sys
    os.environ["REPRO_MP_CONTEXT"] = "fork"
    sys.path.insert(0, sys.argv[1])
    from repro.train import RunSpec
    from repro.exec.mp import ProcessRankExecutor

    spec = RunSpec.from_dict({
        "model": {"config": "small", "rows_cap": 200, "minibatch": 16, "seed": 3},
        "data": {"name": "random", "seed": 5},
        "parallel": {"ranks": 2, "platform": "cluster"},
        "schedule": {"steps": 2, "batch_size": 32, "eval_size": 32},
    })
    cfg = spec.build_config()
    from repro.parallel.cluster import SimCluster
    from repro.parallel.hybrid import DistributedDLRM
    cluster = SimCluster(2, platform="cluster")
    dist = DistributedDLRM(cfg, cluster, seed=3)
    dist.attach_optimizers(spec.build_optimizer)
    ex = ProcessRankExecutor(dist, spec.build_dataset(cfg), batch_size=32, workers=2)
    print("PIDS " + " ".join(map(str, [p.pid for p in ex._procs])), flush=True)
    # Fire a step and die mid-flight: no close(), no atexit (os._exit).
    for conn in ex._conns:
        conn.send(("step", 0, 0.05))
    os._exit(1)
    """
)


class TestOrphanReaping:
    def test_workers_reaped_when_parent_dies_mid_step(self, tmp_path):
        script = tmp_path / "orphan.py"
        script.write_text(ORPHAN_SCRIPT)
        out = subprocess.run(
            [sys.executable, str(script), SRC],
            capture_output=True,
            text=True,
            timeout=120,
        )
        pid_lines = [line for line in out.stdout.splitlines() if line.startswith("PIDS")]
        assert pid_lines, f"no worker pids reported: {out.stdout!r} {out.stderr!r}"
        pids = [int(p) for p in pid_lines[0].split()[1:]]
        assert pids
        # Workers detect the dead parent (pipe EOF / liveness poll +
        # barrier abort) and exit on their own.
        for pid in pids:
            _wait_gone(pid, timeout=30.0)
