"""Tracing only observes: traced runs are bitwise the untraced runs.

Covers both execution substrates (thread pool and process-rank
workers), plus the shape of the merged cross-process timeline: a drain
asks each worker for its spans over the command pipe.
"""

import numpy as np
import pytest

from repro.obs import Tracer, set_tracer
from repro.train import RunSpec, make_trainer
from repro.train.trainer import Trainer


@pytest.fixture(autouse=True)
def _fork_and_clean_tracer(monkeypatch):
    # fork: fast worker startup, and the spawn path is covered elsewhere.
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")
    set_tracer(None)
    yield
    set_tracer(None)


def tiny_spec(ranks: int = 1) -> RunSpec:
    return RunSpec.from_dict(
        {
            "name": "obs-bit",
            "model": {"config": "small", "rows_cap": 200, "minibatch": 16, "seed": 3},
            "data": {"name": "random", "seed": 5},
            "parallel": {"ranks": ranks, "platform": "cluster"},
            "schedule": {"steps": 3, "batch_size": 32, "eval_size": 32},
        }
    )


def run(ranks: int, backend: str, traced: bool):
    """(final state dict, drained spans) after 3 steps."""
    if traced:
        set_tracer(Tracer(proc="main"))
    try:
        if ranks > 1:
            trainer = Trainer.from_spec(
                tiny_spec(ranks), backend=backend, workers=2
            )
        else:
            trainer = make_trainer(tiny_spec())
        try:
            trainer.fit(3)
            state = trainer.model_state_dict()
            spans = trainer.drain_trace_spans()
        finally:
            trainer.close()
    finally:
        set_tracer(None)
    return state, spans


def assert_states_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        assert np.array_equal(a[key], b[key]), f"state {key!r} diverged"


@pytest.mark.parametrize(
    "ranks,backend",
    [(1, "thread"), (2, "thread"), (2, "process")],
    ids=["single", "thread", "process"],
)
def test_traced_run_is_bitwise_untraced(ranks, backend):
    base_state, base_spans = run(ranks, backend, traced=False)
    traced_state, traced_spans = run(ranks, backend, traced=True)
    assert base_spans == []
    assert traced_spans, "traced run recorded nothing"
    assert_states_equal(base_state, traced_state)


def test_cross_process_merge_is_rank_attributed_and_ordered():
    _, spans = run(2, "process", traced=True)
    procs = {s["proc"] for s in spans}
    assert "main" in procs
    assert any(p.startswith("worker") for p in procs), procs
    # Worker spans name the ranks they ran: the Perfetto lane label.
    worker = next(p for p in procs if p.startswith("worker"))
    assert "ranks" in worker
    # One timeline, merged in (start, depth) order across processes.
    keys = [(s["ts"], s["depth"]) for s in spans]
    assert keys == sorted(keys)
    names = {s["name"] for s in spans}
    assert "train.step" in names  # parent loop
    assert any(n.startswith("phase.") for n in names)  # worker phases
    assert any(n.startswith("update.") for n in names)
    # Rank counters attribute worker work to model ranks.
    ranks = {
        int(s["args"]["rank"])
        for s in spans
        if s.get("args", {}).get("rank") is not None
    }
    assert ranks == {0, 1}


def test_steptimer_summary_includes_percentiles_and_stage_table():
    from repro.train.callbacks import StepTimer

    timer = StepTimer()
    timer.times = [0.010, 0.020, 0.030, 0.040]
    line = timer.summary()
    assert "p50" in line and "p95" in line and "p99" in line
    assert timer.percentile_ms(0) == pytest.approx(10.0)
    assert timer.percentile_ms(100) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        timer.percentile_ms(101)
    _, spans = run(1, "thread", traced=True)
    with_stages = timer.summary(spans)
    assert "train.step" in with_stages
