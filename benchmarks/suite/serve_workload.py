"""``serve_infer``: train briefly, checkpoint, load into an
:class:`InferenceEngine`, then score micro-batches in a closed loop
with one client."""

from __future__ import annotations

import itertools
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.batch import Batch
from repro.serve.batcher import MicroBatcher, StreamConfig, poisson_stream
from repro.serve.cache import EmbeddingCache
from repro.serve.driver import ServeParams, ServingWorkload, run_serving
from repro.serve.engine import InferenceEngine
from repro.train import RunSpec, make_trainer
from repro.util import rng_from

import layers
from common import MIN_OPS, SETUP_REPS, HostSpeed, Outcome, measure_speed, ms, peak_rss_mb
from spans import SpanRecorder

#: The query stream: Poisson arrivals, Zipf candidate counts and user
#: keys, coalesced by the dynamic policy.  Index synthesis costs about a
#: millisecond per request, so a run builds this many requests once and
#: the client cycles through their micro-batches.
STREAM_REQUESTS = 1000
MEAN_QPS = 4000.0
MAX_BATCH_SAMPLES = 128
LATENCY_BUDGET_S = 5e-3
#: Predictions each set-up scores before the engine counts as warm.
WARMUP_BATCHES = 3
#: Held-out probe on which the engine must match the trainer bitwise.
PROBE_SIZE, PROBE_INDEX = 256, 10_000_001
#: Requests of the modelled serving simulation (``serve.sim.*``).
SIM_REQUESTS = 1000

_now = time.perf_counter


def build_inputs(spec: RunSpec, seed: int, requests: int):
    """Every micro-batch the client will send, built before any timer
    that measures scoring starts; returns (batches, layer timings)."""
    cfg = spec.build_config()
    stream = poisson_stream(StreamConfig(requests=requests, mean_qps=MEAN_QPS, seed=seed))
    batcher = MicroBatcher("dynamic", MAX_BATCH_SAMPLES, LATENCY_BUDGET_S)
    t0 = _now()
    plan = batcher.plan(stream)
    plan_s = _now() - t0
    workload = ServingWorkload(cfg, seed=seed)
    rng = rng_from(seed, "bench.serve.dense")
    batches, synth_s = [], 0.0
    for mb in plan:
        t0 = _now()
        indices = workload.batch_indices(mb)
        synth_s += _now() - t0
        n = mb.samples
        batches.append(
            Batch(
                dense=rng.standard_normal((n, cfg.dense_features)).astype(np.float32),
                indices=indices,
                # One look-up per candidate and table (the MLPerf shape).
                offsets=[np.arange(n + 1, dtype=np.int64)] * cfg.num_tables,
                labels=np.zeros(n, dtype=np.float32),
            )
        )
    timings = {
        "serve.batcher.plan_ms": plan_s * 1e3,
        "serve.batcher.mean_batch_samples": statistics.fmean(b.size for b in batches),
        "serve.driver.synth_ms": synth_s / len(batches) * 1e3,
    }
    return batches, timings


def set_up(spec: RunSpec, batches: list[Batch], ckpt: Path):
    """Spec -> trained checkpoint -> warm engine.  Returns (trainer,
    engine, total seconds, checkpoint timings)."""
    t0 = _now()
    trainer = make_trainer(spec).fit()
    t1 = _now()
    trainer.save_checkpoint(ckpt)
    t2 = _now()
    engine = InferenceEngine.from_checkpoint(ckpt)
    t3 = _now()
    engine.warmup(max(b.size for b in batches))
    for batch in batches[:WARMUP_BATCHES]:
        engine.predict(batch)
    total = _now() - t0
    ckpt_metrics = {
        "train.ckpt_save_ms": (t2 - t1) * 1e3,
        "train.ckpt_load_ms": (t3 - t2) * 1e3,
        "train.ckpt_mb": ckpt.stat().st_size / 1e6,
    }
    return trainer, engine, total, ckpt_metrics


def run_section(engine, batches, seconds: float, out: Outcome, rec: SpanRecorder | None = None):
    """Closed loop, one client: the next micro-batch is sent when the
    previous one is scored.  ``batches`` is an iterator the sections of a
    run share, so each resumes the cycle where the last one stopped.
    Returns (per-batch ns, samples, wall s)."""
    op_ns: list[int] = []
    samples = 0
    start = _now()
    deadline = start + seconds
    for batch in batches:
        if rec is not None:
            rec.op += 1
            sid = rec.open(layers.OP_SPAN)
        t0 = time.perf_counter_ns()
        scores = engine.predict(batch)
        op_ns.append(time.perf_counter_ns() - t0)
        if rec is not None:
            rec.close(sid)
        samples += batch.size
        if not np.isfinite(scores).all():
            out.failed += 1
        if _now() >= deadline and len(op_ns) >= MIN_OPS:
            break
    out.attempted += len(op_ns)
    return op_ns, samples, _now() - start


def verify(trainer, engine, out: Outcome) -> None:
    probe = trainer.dataset.batch(PROBE_SIZE, PROBE_INDEX)
    out.check(
        np.array_equal(engine.predict(probe), trainer.predict_proba(probe)),
        f"engine.predict == Trainer.predict_proba on {PROBE_SIZE} held-out samples, bitwise",
    )


def cache_metrics(cfg, batches: list[Batch]) -> dict[str, float]:
    """Drive the serving row cache with the stream's own index vectors."""
    cache = EmbeddingCache(ServeParams().cache_rows, cfg.table_rows)
    hits = rows = 0
    t0 = _now()
    for batch in batches:
        for t, idx in enumerate(batch.indices):
            report = cache.access(t, idx)
            hits += report.hits
            rows += report.lookups
    elapsed = _now() - t0
    return {
        "serve.cache.access_us_per_row": elapsed / rows * 1e6,
        "serve.cache.hit_rate": hits / rows,
    }


def sim_metrics(seed: int, requests: int) -> dict[str, float]:
    """Wall rate and modelled tail of the multi-replica simulation."""
    t0 = _now()
    _, row = run_serving(ServeParams(requests=requests, seed=seed))
    elapsed = _now() - t0
    return {
        "serve.sim.requests_per_s": requests / elapsed,
        "serve.sim.modelled_p99_ms": float(row["p99_ms"]),
    }


def run_untraced(spec: RunSpec, seed: int, seconds: float, tmp: Path, requests: int) -> Outcome:
    out = Outcome()
    host = HostSpeed()
    batches, _ = build_inputs(spec, seed, requests)
    setups = []
    trainer = engine = None
    for _ in range(SETUP_REPS):
        # Drop the previous replica before building the next (see the
        # train workloads: peak RSS is one set-up's footprint).
        trainer = engine = None
        trainer, engine, total, _ = set_up(spec, batches, tmp / "serve.npz")
        setups.append(total / host.slowdown())
    client = itertools.cycle(batches)
    rate, p50, op_ns, slow = measure_speed(
        seconds, lambda secs: run_section(engine, client, secs, out), host
    )
    out.metrics = {
        "setup_s": statistics.median(setups),
        "samples_per_s": rate,
        "op_ms_p50": p50,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.notes.append(
        f"timed section: {len(op_ns)} micro-batches (cycling {len(batches)} distinct ones); "
        f"raw wall p50 {ms(op_ns):.3f} p90 {ms(op_ns, 90):.3f} ms at host slowdown {slow:.3f}; "
        f"normalised set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    verify(trainer, engine, out)
    return out


def run_traced(
    spec: RunSpec, seed: int, seconds: float, tmp: Path, spans_path: Path,
    requests: int, sim_requests: int,
) -> Outcome:
    out = Outcome()
    batches, m = build_inputs(spec, seed, requests)
    trainer, engine, _, ckpt_metrics = set_up(spec, batches, tmp / "serve.npz")
    m.update(ckpt_metrics)
    rec = SpanRecorder()
    client = itertools.cycle(batches)
    traced_samples = 0

    def section(secs: float, recorder: SpanRecorder | None) -> list[int]:
        nonlocal traced_samples
        op_ns, samples, _ = run_section(engine, client, secs, out, recorder)
        if recorder is not None:
            traced_samples += samples
        return op_ns

    plain_ns, traced_ns, obs_ns = layers.alternate(seconds, section, rec)
    cfg = spec.build_config()
    m.update(
        layers.span_metrics(rec, len(traced_ns), cfg.mlp_layer_shapes(), traced_samples, 0)
    )
    # No Trainer.fit loop runs here; the op span's self time is the
    # client loop, counted in bench.layer_residual_share.
    m["train.loop_self_ms"] = 0.0
    m["serve.engine.predict_ms_p95"] = ms(plain_ns, 95)
    m["serve.engine.cold_calls"] = float(engine.cold_calls)
    m.update(layers.overhead_metrics(plain_ns, traced_ns, obs_ns))
    m.update(cache_metrics(cfg, batches))
    m.update(sim_metrics(seed, sim_requests))
    out.metrics = m
    out.notes.append(
        f"untraced {len(plain_ns)} micro-batches p50 {ms(plain_ns):.3f} ms; "
        f"traced {len(traced_ns)} p50 {ms(traced_ns):.3f} ms, {len(rec.names)} spans; "
        f"repro.obs.Tracer {len(obs_ns)} micro-batches"
    )
    verify(trainer, engine, out)
    rec.write_jsonl(spans_path)
    return out
