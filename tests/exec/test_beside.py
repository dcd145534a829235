"""The step's helper thread: the next batch is built beside the row scatter.

At pool width 1 :class:`~repro.exec.executor.LocalExecutor` builds batch
``k+1`` during step ``k``: beside the FP32 row scatter, which runs on
the first of the process's helper threads (:func:`repro.exec.pool.helpers`),
or after the update where no such scatter runs.  These tests hold that to *when*,
never *what*: the same losses and state bits as a process with one
allowed CPU (which has no helper), the scatter applied once whatever
the synthesis does, the primed batch dropped on a jump, every span on
the caller's thread, and no helper in a forked child.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.data.criteo import SyntheticCriteoDataset
from repro.exec.executor import LocalExecutor
from repro.exec.pool import WorkerPool, helpers, pinned
from repro.exec.prefetch import PrefetchLoader, beside
from repro.kernels import dispatch
from repro.obs import Tracer, set_tracer
from repro.train import RunSpec, Trainer, make_trainer

from tests.conftest import assert_same_bits, force_kernel_tier, state_digest
from tests.data import batch_bits
from tests.train.test_process_trainer import dist_spec

REPO = Path(__file__).resolve().parents[2]
ONE_CPU = len(os.sched_getaffinity(0)) == 1

#: (storage, optimizer): the fused FP32 scatter, Adagrad's per-table
#: scatters (the first of a step takes the work) and the Split-BF16
#: update, after which the batch is built instead.
CASES = {
    "fp32": ("fp32", "sgd"),
    "split_bf16": ("split_bf16", "split_sgd"),
    "adagrad": ("fp32", "adagrad"),
}


def criteo_spec(storage: str = "fp32", optimizer: str = "sgd", steps: int = 5) -> RunSpec:
    return RunSpec.from_dict(
        {
            "name": "beside",
            "model": {"config": "small", "rows_cap": 400, "minibatch": 64, "seed": 2},
            "data": {"name": "criteo", "seed": 3},
            "optimizer": {"name": optimizer, "lr": 0.05},
            "update": {"name": "fused"},
            "precision": {"storage": storage},
            "schedule": {"steps": steps, "eval_size": 64},
        }
    )


def run(spec: RunSpec) -> dict:
    trainer = make_trainer(spec)
    try:
        trainer.fit()
        model, opt = trainer._executor.state_dicts()
        return {
            "losses": [float(x).hex() for x in trainer.losses],
            "model": state_digest(model),
            "optimizer": state_digest(opt),
        }
    finally:
        trainer.close()


_ONE_CPU_CHILD = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.exec.pool import helpers
from repro.kernels import native
from repro.train import RunSpec
from tests.exec.test_beside import run
out = run(RunSpec.from_dict(json.loads(sys.argv[1])))
print(json.dumps({**out, "tier": native.tier(), "helper": bool(helpers())}))
"""


def one_cpu_child(spec: RunSpec, tier: str) -> dict:
    """:func:`run` in a child interpreter restricted to one CPU, on ``tier``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])}
    if tier == "numpy":
        env["CC"] = "/bin/false"
    child = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_CHILD, json.dumps(spec.to_dict())],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    return json.loads(child.stdout)


def first_helper():
    """The helper :func:`~repro.exec.prefetch.overlap` hands its call to;
    None where there is none."""
    return next(iter(helpers()), None)


@pytest.fixture
def handed(monkeypatch):
    """The calls handed to the helper beside a step's work."""
    calls, side = [], first_helper()
    if side is not None:
        real = side.submit
        monkeypatch.setattr(side, "submit", lambda *task: (calls.append(task), real(*task))[1])
    return calls


def test_one_allowed_cpu_means_no_helper():
    assert (first_helper() is None) == ONE_CPU


@pytest.mark.parametrize("case", CASES)
def test_the_helper_changes_no_bit(case, kernel_tier, handed):
    spec = criteo_spec(*CASES[case])
    got = run(spec)
    want = one_cpu_child(spec, kernel_tier)
    assert want["tier"] == kernel_tier and not want["helper"]
    assert got == {k: want[k] for k in got}
    # The helper took one call a step exactly where an FP32 scatter runs whole.
    takes = CASES[case][0] == "fp32" and kernel_tier == "native" and not ONE_CPU
    assert len(handed) == (spec.schedule.steps if takes else 0)
    assert all(fn is pinned for fn, _ in handed)


def failing_at(batch, bad: int):
    """``batch`` (a dataset's), raising for index ``bad``."""

    def fails(n: int, index: int):
        if index == bad:
            raise RuntimeError(f"batch {index} failed")
        return batch(n, index)

    return fails


def assert_idle(side) -> None:
    if side is not None:  # nothing queued, and the next call runs at once
        assert side._work_queue.empty() and side.submit(int).result(timeout=5) == 0


def test_threads_sharing_the_helper_each_get_their_own_call_and_work(monkeypatch):
    """More callers than CPUs, switching often: every block's scatter lands
    once in its own rows and its work runs once, whoever had the helper."""
    force_kernel_tier(monkeypatch, "native")
    ids, deltas = np.arange(64, dtype=np.int64) % 8, np.ones((64, 16), np.float32)
    rounds, callers = 50, 6
    weights = [np.zeros((8, 16), np.float32) for _ in range(callers)]
    works = [0] * callers

    def caller(c: int) -> None:
        for _ in range(rounds):
            with beside(lambda: works.__setitem__(c, works[c] + 1)):
                dispatch.scatter_add_exact(weights[c], ids, deltas)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(c,)) for c in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert works == [rounds] * callers
    assert all((w == 8 * rounds).all() for w in weights)
    assert_idle(first_helper())


class TestAFailingBatch:
    def test_the_scatter_lands_once_and_the_helper_is_idle(self, monkeypatch):
        force_kernel_tier(monkeypatch, "native")
        weight = np.zeros((4, 16), np.float32)
        ids, deltas = np.array([1, 3, 1], np.int64), np.ones((3, 16), np.float32)

        def fail():
            raise RuntimeError("synthesis failed")

        with pytest.raises(RuntimeError, match="synthesis failed"):
            with beside(fail):
                dispatch.scatter_add_exact(weight, ids, deltas)
        np.testing.assert_array_equal(weight[:, 0], [0, 2, 0, 1])
        assert_idle(first_helper())

    @pytest.mark.parametrize("tier", ["native", "numpy"])
    def test_the_step_before_trains_and_the_failure_waits_for_its_batch(self, tier, monkeypatch):
        force_kernel_tier(monkeypatch, tier)
        failing, twin = make_trainer(criteo_spec()), make_trainer(criteo_spec())
        ex = failing._executor
        with monkeypatch.context() as m:
            m.setattr(ex.dataset, "batch", failing_at(ex.dataset.batch, bad=3))
            losses = [ex.step(i, None) for i in range(3)]  # step 2 primes batch 3
            assert losses == [twin._executor.step(i, None) for i in range(3)]
            assert_same_bits(ex.state_dicts()[0], twin._executor.state_dicts()[0])
            assert_idle(first_helper())
            with pytest.raises(RuntimeError, match="batch 3 failed"):
                ex.step(3, None)
        # A retry builds the batch afresh.
        assert ex.step(3, None) == twin._executor.step(3, None)
        failing.close(), twin.close()


class TestThePrimedBatch:
    def test_a_jump_drops_it_and_the_batches_are_the_parents(self):
        cell = ("train_emb", 0, 1.05)
        cfg, n = batch_bits.shape(cell[0])
        loader = PrefetchLoader(SyntheticCriteoDataset(cfg, seed=0, alpha=1.05), n, WorkerPool(1))
        h = hashlib.sha256()
        for i in batch_bits.BATCH_INDICES:  # 0, 1, 17: a hit, then a jump
            b = loader.batch(i)
            assert sorted(loader._ahead._pending) == []
            loader.primer(i + 1)()
            assert sorted(loader._ahead._pending) == [i + 1]
            for a in (b.dense, *b.indices, *b.offsets, b.labels):
                batch_bits._update(h, a)
        recorded = json.loads((REPO / "tests/data/data/parent_7e426b8_batches.json").read_text())
        assert h.hexdigest() == recorded["cells"][batch_bits.name(*cell)]["batches"]

    def test_a_resumed_step_misses_it(self):
        ex = make_trainer(criteo_spec())._executor
        assert isinstance(ex, LocalExecutor)
        used = []
        real = ex.model.train_step
        ex.model.train_step = lambda batch, opt: (used.append(batch), real(batch, opt))[1]
        ex.step(0, None), ex.step(1, None), ex.step(5, None)
        assert sorted(ex._prefetch._ahead._pending) == [6]
        want = ex.dataset.batch(ex.batch_size, 5)
        assert np.array_equal(used[2].dense, want.dense)
        assert all(np.array_equal(a, b) for a, b in zip(used[2].indices, want.indices))
        ex.close()

    def test_a_wider_pool_schedules_it_itself(self):
        loader = PrefetchLoader(SyntheticCriteoDataset(criteo_spec().build_config()), 8, WorkerPool(2))
        assert loader.primer(1) is None


def test_every_span_comes_from_the_callers_thread(kernel_tier, handed):
    tracer = Tracer()
    set_tracer(tracer)
    try:
        run(criteo_spec(steps=3))
    finally:
        set_tracer(None)
    spans = tracer.drain()
    assert len(handed) == (3 if kernel_tier == "native" and not ONE_CPU else 0)
    assert {"data.synthesis", "update.sparse"} <= {s["name"] for s in spans}
    assert {s["tid"] for s in spans} == {1}
    assert list(tracer._rings) == [threading.get_ident()]


class TestFork:
    @staticmethod
    def started_helper():
        """The helper, its thread running (where there is one)."""
        side = first_helper()
        if side is not None:
            assert side.submit(int).result(timeout=5) == 0
        return side

    def test_a_forked_child_has_no_helper(self):
        made = self.started_helper()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            os._exit(0 if helpers.cache_info().currsize == 0 else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert first_helper() is made  # the parent keeps its own

    def test_a_process_run_after_a_local_one_trains_as_inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")
        self.started_helper()
        run(criteo_spec(steps=2))
        spec = dist_spec(steps=3)
        inline = Trainer.from_spec(spec)
        proc = Trainer.from_spec(spec, backend="process", workers=2)
        try:
            inline.fit(), proc.fit()
            assert inline.losses == proc.losses
            for a, b in zip(inline._executor.state_dicts(), proc._executor.state_dicts()):
                assert_same_bits(b, a)
        finally:
            inline.close(), proc.close()
