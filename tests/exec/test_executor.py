"""RankExecutor conformance: local, inline and process behind one surface.

Every executor must honour the contract the Trainer loop is written
against; the two that run the same 4-rank spec (inline, process) must
also agree bitwise on everything observable.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.exec.executor import InlineRankExecutor, LocalExecutor
from repro.exec.mp import ProcessRankExecutor
from repro.exec.pool import get_pool
from repro.train import Trainer, make_trainer

from tests.train.test_process_trainer import dist_spec, state_equal
from tests.train.test_trainer import tiny_spec

KINDS = {
    "local": (LocalExecutor, "thread"),
    "inline": (InlineRankExecutor, "thread"),
    "process": (ProcessRankExecutor, "process"),
}


@pytest.fixture(autouse=True)
def _fork_context(monkeypatch):
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")


def build(kind: str):
    """A fresh executor of ``kind``, built the way production builds it."""
    spec = tiny_spec() if kind == "local" else dist_spec()
    workers = 2 if kind == "process" else None
    return make_trainer(spec, backend=KINDS[kind][1], workers=workers)._executor


@pytest.fixture(scope="module")
def lockstep():
    """One inline and one process executor of the same spec for the whole
    module, stepped together from fresh: what each returned on the way
    is recorded for the agreement test to read, and the executors stay
    open for whatever does not need them fresh.  Built on first use,
    inside a test, so the fork context applies."""
    built = []

    def get() -> SimpleNamespace:
        if not built:
            inline, proc = build("inline"), build("process")
            batch = inline.dataset.batch(64, 10_000)
            rates = enumerate([None, 0.2, 0.1])
            built.append(
                SimpleNamespace(
                    executors={"inline": inline, "process": proc},
                    losses=[(inline.step(i, lr), proc.step(i, lr)) for i, lr in rates],
                    clocks=(inline.clocks(), proc.clocks()),
                    states=(inline.state_dicts(), proc.state_dicts()),
                    probs=(inline.predict(batch), proc.predict(batch)),
                )
            )
        return built[0]

    yield get
    for shared in built:
        for ex in shared.executors.values():
            ex.close()


@pytest.mark.parametrize("kind", KINDS)
def test_conformance(kind, lockstep):
    ex = build(kind)
    ex.close()  # safe before any step ...
    ex.close()  # ... and idempotent

    # Nothing below needs a fresh executor: every assertion is relative
    # to the state it starts from, so the ranked kinds use the module's.
    ex = build(kind) if kind == "local" else lockstep().executors[kind]
    try:
        assert type(ex) is KINDS[kind][0] and ex.backend == KINDS[kind][1]
        assert ex.dataset is not None and ex.batch_size > 0
        # lr=None keeps the optimizers' own rate; a scheduled rate lands
        # on the optimizer before the step uses it.
        own_lr = ex.optimizer.lr
        assert np.isfinite(ex.step(0, None)) and ex.optimizer.lr == own_lr
        assert np.isfinite(ex.step(1, own_lr / 2))
        if kind != "process":  # the parent's replica is only a template there
            assert ex.optimizer.lr == own_lr / 2

        # state_dicts -> load_state rewinds bitwise: the replayed step
        # recomputes the same loss and lands on the same state.
        model_state, opt_state = ex.state_dicts()
        replay_loss = ex.step(2, None)
        after = ex.state_dicts()
        ex.load_state(model_state, opt_state)
        back = ex.state_dicts()
        assert state_equal(back[0], model_state) and state_equal(back[1], opt_state)
        assert ex.step(2, None) == replay_loss
        again = ex.state_dicts()
        assert state_equal(again[0], after[0]) and state_equal(again[1], after[1])

        probs = ex.predict(ex.dataset.batch(64, 10_000))
        assert probs.shape == (64,) and np.all((probs > 0) & (probs < 1))
        clocks = ex.clocks()
        assert clocks == [] if kind == "local" else len(clocks) == 4
        assert ex.drain_traces() == []  # tracing is off
    finally:
        if kind == "local":
            ex.close()
            ex.close()


def test_inline_and_process_agree_bitwise(lockstep):
    shared = lockstep()
    assert all(inline_loss == proc_loss for inline_loss, proc_loss in shared.losses)
    assert shared.clocks[0] == shared.clocks[1]
    for a, b in zip(*shared.states):
        assert state_equal(a, b)
    assert np.array_equal(*shared.probs)


@pytest.mark.parametrize("ranks", [1, 4])
def test_close_restores_the_pool_width(ranks):
    """``exec_workers=N`` resizes the process-wide pool for the trainer's
    lifetime only (the width used to leak into whatever ran next)."""
    before = get_pool().workers
    over = {"parallel.exec_workers": before + 2}
    spec = (tiny_spec() if ranks == 1 else dist_spec()).with_overrides(over)
    trainer = Trainer.from_spec(spec)
    assert get_pool().workers == before + 2
    trainer.fit(2)
    trainer.close()
    assert get_pool().workers == before
    trainer.close()
    assert get_pool().workers == before
