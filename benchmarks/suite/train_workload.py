"""The five ``train_*`` workloads: one RunSpec, timed through ``fit``."""

from __future__ import annotations

import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.tiering.planner import plan_from_spec
from repro.tiering.store import TieredEmbeddingBag, apply_tiering
from repro.train import RunSpec, make_trainer
from repro.train.callbacks import Callback

import layers
from common import (
    MIN_OPS, SETUP_REPS, HostSpeed, Outcome, measure_speed, ms, peak_rss_mb, states_equal,
)
from spans import SpanRecorder

#: Steps every set-up trains before the trainer counts as warm; they
#: are also the steps the reference strategy must reproduce bitwise.
WARMUP_STEPS = 3
#: Steps the tiered trainer and its flat twin run before their weights
#: are compared.
TIER_TWIN_STEPS = 20
#: Process-backend probe: rounds x steps, each round giving one median.
MP_ROUNDS, MP_ROUND_STEPS = 3, 8

_now = time.perf_counter


class StepTimer(Callback):
    """Times each step from ``on_step_start`` to ``on_step_end`` and ends
    the section through ``should_stop`` once its time is up, so one
    ``fit`` call runs a whole section the way a user would."""

    def __init__(self) -> None:
        self.op_ns: list[int] = []
        self.rec: SpanRecorder | None = None
        self._deadline = math.inf
        self._t0 = 0
        self._sid = -1

    def arm(self, seconds: float, rec: SpanRecorder | None = None) -> None:
        self.op_ns = []
        self.rec = rec
        self._deadline = _now() + seconds

    def on_step_start(self, trainer, step: int) -> None:
        if self.rec is not None:
            self.rec.op = step
            self._sid = self.rec.open(layers.OP_SPAN)
        self._t0 = time.perf_counter_ns()

    def on_step_end(self, trainer, step: int, loss: float) -> None:
        self.op_ns.append(time.perf_counter_ns() - self._t0)
        if self.rec is not None:
            self.rec.close(self._sid)
        if _now() >= self._deadline and len(self.op_ns) >= MIN_OPS:
            trainer.should_stop = True


def set_up(spec: RunSpec, timer: StepTimer):
    """Spec -> warm trainer; returns (trainer, build seconds, total seconds)."""
    t0 = _now()
    trainer = make_trainer(spec, callbacks=[timer])
    built = _now()
    trainer.fit(WARMUP_STEPS)
    return trainer, built - t0, _now() - t0


def run_section(trainer, timer: StepTimer, seconds: float, rec=None):
    """One time-bounded ``fit``; returns (per-step ns, samples, wall s)."""
    timer.arm(seconds, rec)
    t0 = _now()
    trainer.fit(10**9)
    wall = _now() - t0
    op_ns = timer.op_ns
    timer.arm(math.inf)
    return op_ns, len(op_ns) * trainer.batch_size, wall


# -- verification ---------------------------------------------------------------


def verify(spec: RunSpec, trainer, out: Outcome) -> None:
    """Finite losses, bitwise agreement with the reference update
    strategy and, when tiering is on, of a tiered trainer with its flat
    twin."""
    losses = trainer.losses
    bad = sum(1 for x in losses if not math.isfinite(x))
    out.attempted += len(losses)
    out.failed += bad
    out.notes.append(f"verify {'ok  ' if not bad else 'FAIL'} {len(losses)} losses finite")

    ref = make_trainer(
        spec.with_overrides({"update.name": "reference", "tiering.enabled": False})
    )
    ref.fit(WARMUP_STEPS)
    for i in range(WARMUP_STEPS):
        out.check(ref.losses[i] == losses[i], f"step {i} loss == reference strategy, bitwise")
    ref.close()

    if spec.tiering.enabled:
        tiered = make_trainer(spec).fit(TIER_TWIN_STEPS)
        flat = make_trainer(spec.with_overrides({"tiering.enabled": False}))
        flat.fit(TIER_TWIN_STEPS)
        out.check(
            states_equal(tiered.model_state_dict(), flat.model_state_dict()),
            f"tiered weights == flat twin after {TIER_TWIN_STEPS} steps, bitwise",
        )


# -- traced-run extras ------------------------------------------------------------


def index_ratios(trainer, first_step: int, steps: int = 3) -> tuple[float, float]:
    """(unique rows / look-ups, hot-tier hits / look-ups on tiered
    tables) over the batches of ``steps`` traced steps.  Batches are pure
    functions of (seed, index), so regenerating them after the timer has
    stopped gives exactly the indices the steps saw."""
    lookups = unique = tier_lookups = tier_hits = 0.0
    tables = trainer.model.tables
    for step in range(first_step, first_step + steps):
        batch = trainer.dataset.batch(trainer.batch_size, step)
        for t, idx in enumerate(batch.indices):
            lookups += len(idx)
            unique += len(np.unique(idx))
            table = tables.get(t)
            if isinstance(table, TieredEmbeddingBag):
                tier_lookups += len(idx)
                tier_hits += table.hot_traffic_fraction(idx) * len(idx)
    return unique / lookups, (tier_hits / tier_lookups if tier_lookups else 0.0)


def tiering_plan_seconds(spec: RunSpec) -> float:
    """Wall time of ``plan_from_spec`` + ``apply_tiering`` on a fresh model."""
    cfg = spec.build_config()
    model = spec.build_model(cfg)
    t0 = _now()
    plan = plan_from_spec(spec, cfg)
    apply_tiering(model, plan.plans)
    elapsed = _now() - t0
    for table in model.tables.values():
        if isinstance(table, TieredEmbeddingBag):
            table.close()
    return elapsed


def checkpoint_metrics(trainer, tmp: Path) -> dict[str, float]:
    path = tmp / "train.npz"
    t0 = _now()
    trainer.save_checkpoint(path)
    t1 = _now()
    trainer.load_checkpoint(path)
    t2 = _now()
    return {
        "train.ckpt_save_ms": (t1 - t0) * 1e3,
        "train.ckpt_load_ms": (t2 - t1) * 1e3,
        "train.ckpt_mb": path.stat().st_size / 1e6,
    }


def virtual_comm(cluster) -> tuple[float, float]:
    """(exposed collective wait, total rank time) in virtual seconds."""
    return (
        sum(p.comm_time() for p in cluster.profilers),
        sum(c.now for c in cluster.clocks),
    )


def process_backend_probe(
    spec: RunSpec, inline, inline_build_s: float, inline_p50_ms: float, out: Outcome
) -> dict[str, float]:
    """A short run of the same spec on worker processes.  Two workers on
    this host's two shared cores give medians that move by tens of
    percent between identical runs, which is why the backend is probed
    here and not timed end to end."""
    workers = min(2, os.cpu_count() or 1)
    timer = StepTimer()
    mp_spec = spec.with_overrides(
        {"parallel.exec_backend": "process", "parallel.exec_workers": workers}
    )
    t0 = _now()
    trainer = make_trainer(mp_spec, callbacks=[timer])
    build_s = _now() - t0
    try:
        medians = []
        for _ in range(MP_ROUNDS):
            timer.arm(math.inf)
            trainer.fit(MP_ROUND_STEPS)
            medians.append(ms(timer.op_ns))
        n = min(len(trainer.losses), len(inline.losses))
        out.check(
            trainer.losses[:n] == inline.losses[:n],
            f"process-backend losses == inline over {n} steps, bitwise",
        )
        # No public accessor reports the width the executor settled on.
        effective = trainer._executor.n_workers
    finally:
        t0 = _now()
        trainer.close()
        close_s = _now() - t0
    p50 = statistics.median(medians)
    return {
        "exec.mp.step_ms_p50": p50,
        "exec.mp.speedup_vs_inline": inline_p50_ms / p50,
        # The parent replica is built either way; what the process
        # backend adds on top is spawning and seeding its workers.
        "exec.mp.spawn_s": max(0.0, build_s - inline_build_s),
        "exec.mp.close_s": close_s,
        "exec.mp.effective_workers": float(effective),
        "exec.mp.run_spread": (max(medians) - min(medians)) / min(medians),
    }


# -- the two run modes -------------------------------------------------------------


def run_untraced(spec: RunSpec, seconds: float) -> Outcome:
    out = Outcome()
    timer = StepTimer()
    host = HostSpeed()
    setups, trainer = [], None
    for _ in range(SETUP_REPS):
        # Drop the previous set-up first: peak RSS should be the
        # workload's own footprint, not two trainers side by side.
        if trainer is not None:
            trainer.close()
        trainer = None
        trainer, _, total = set_up(spec, timer)
        setups.append(total / host.slowdown())
    rate, p50, op_ns, slow = measure_speed(
        seconds, lambda secs: run_section(trainer, timer, secs), host
    )
    rss = peak_rss_mb()
    out.metrics = {
        "setup_s": statistics.median(setups),
        "samples_per_s": rate,
        "op_ms_p50": p50,
        "peak_rss_mb": rss,
    }
    out.notes.append(
        f"timed section: {len(op_ns)} steps of {trainer.batch_size} samples; raw wall "
        f"p50 {ms(op_ns):.3f} p90 {ms(op_ns, 90):.3f} ms at host slowdown {slow:.3f}; "
        f"normalised set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    verify(spec, trainer, out)
    trainer.close()
    return out


def run_traced(spec: RunSpec, seconds: float, tmp: Path, spans_path: Path) -> Outcome:
    out = Outcome()
    timer = StepTimer()
    trainer, build_s, _ = set_up(spec, timer)
    cluster = trainer.dist.cluster if spec.parallel.ranks > 1 else None
    rec = SpanRecorder()
    first_traced: list[int] = []
    virtual = [0.0, 0.0, 0.0]  # step clock, exposed wait, rank time (virtual s)

    def clocks() -> tuple[float, ...]:
        if cluster is None:
            return (0.0, 0.0, 0.0)
        return (trainer.virtual_clock_s(), *virtual_comm(cluster))

    def section(secs: float, recorder: SpanRecorder | None) -> list[int]:
        before = clocks()
        if recorder is not None:
            first_traced.append(trainer.step)
        op_ns, _, _ = run_section(trainer, timer, secs, recorder)
        if recorder is not None:
            for i, (t0, t1) in enumerate(zip(before, clocks())):
                virtual[i] += t1 - t0
        return op_ns

    plain_ns, traced_ns, obs_ns = layers.alternate(seconds, section, rec)
    ops = len(traced_ns)
    samples = ops * trainer.batch_size
    m = layers.span_metrics(
        rec, ops, spec.build_config().mlp_layer_shapes(), samples, samples
    )
    if cluster:
        m["parallel.virtual_step_ms"] = virtual[0] / ops * 1e3
        m["comm.exposed_wait_share"] = virtual[1] / virtual[2]
    m["core.update.unique_row_ratio"], m["tiering.hot_hit_ratio"] = index_ratios(
        trainer, first_traced[0]
    )
    m["train.step_ms_p90"] = ms(plain_ns, 90)
    m.update(layers.overhead_metrics(plain_ns, traced_ns, obs_ns))
    m.update(checkpoint_metrics(trainer, tmp))
    m["tiering.tiered_tables"] = float(
        sum(isinstance(t, TieredEmbeddingBag) for t in trainer.model.tables.values())
    )
    if spec.tiering.enabled:
        m["tiering.plan_s"] = tiering_plan_seconds(spec)
    if cluster:
        m.update(process_backend_probe(spec, trainer, build_s, ms(plain_ns), out))

    out.metrics = m
    out.notes.append(
        f"untraced {len(plain_ns)} steps p50 {ms(plain_ns):.3f} ms; "
        f"traced {ops} steps p50 {ms(traced_ns):.3f} ms, {len(rec.names)} spans; "
        f"repro.obs.Tracer {len(obs_ns)} steps"
    )
    verify(spec, trainer, out)
    trainer.close()
    rec.write_jsonl(spans_path)
    return out
