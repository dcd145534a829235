#!/usr/bin/env python
"""End-to-end training throughput across the repro.exec backends.

Measures steps/s of the *integrated* training loop -- prefetching loader,
parallel ranks, sharded kernels, callbacks, the works -- for 1/2/4/8
workers, FP32 and Split-BF16, single-socket and distributed (4 ranks).
Distributed scenarios sweep both execution substrates:

* ``thread``  -- the process-wide GIL-sharing worker pool,
* ``process`` -- shared-memory SPMD worker processes (repro.exec.mp).

The sequential baseline is ``thread`` at ``workers=1``: bit-for-bit the
pre-pool code path (inline execution, synchronous batch synthesis).
Every other cell is checked *bitwise* against that baseline (final
consolidated model state after the timed steps); the run fails only if
bit-identity breaks.  Speedups are informational here -- the CI perf
gate (``benchmarks/compare_bench.py``) diffs this file's JSON against
the committed baseline and fails on regressions at matching cpu_count.

Each scenario also carries a ``stages`` section -- the per-stage
wall-clock breakdown of a short traced run (repro.obs spans), versioned
by ``telemetry_schema`` so the CI gate can flag schema drift and stage
shares that blow up between baseline and fresh runs.

The payload also carries a ``resilience`` section: the projected cost of
the permanently-resident fault-injection hooks with no plan armed
(``faults is None``, the production path).  The hooks must stay plain
None-checks; the CI gate fails above 2% projected overhead.

Results are written to ``BENCH_train_e2e.json`` at the repo root.

Run:  PYTHONPATH=src python benchmarks/bench_train_e2e.py [--quick] [--steps N]
"""

from __future__ import annotations

import os

# The pool is the parallelism under test: keep BLAS single-threaded so
# scaling numbers measure repro.exec, not OpenBLAS (must precede the
# first numpy import).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.config import DLRMConfig
from repro.core.model import DLRM
from repro.core.optim import SGD, SplitSGD
from repro.core.update import FusedBackwardUpdate
from repro.data.synthetic import RandomRecDataset
from repro.exec import InlineRankExecutor, LocalExecutor, ProcessRankExecutor
from repro.exec.pool import pooled, tune_allocator_for_threads
from repro.obs import TELEMETRY_SCHEMA, Tracer, set_tracer, stage_breakdown
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM
from repro.resilience.faults import FaultPlan
from repro.train import Trainer

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKER_SWEEP = (1, 2, 4, 8)
RANKS = 4
#: Payload layout version.  3 adds the versioned per-stage telemetry
#: section (``telemetry_schema`` + per-scenario ``stages``).  4 adds the
#: virtual-clock communication split (``virtual_comm`` per distributed
#: scenario + ``exposed_comm_share`` per distributed cell) for the
#: issue-as-ready bucketed allreduce; gated by ``compare_bench.py``.
#: 5 adds the top-level ``resilience`` section -- projected overhead of
#: the disabled fault-injection hooks, gated at <=2% by compare_bench.
SCHEMA = 5


def bench_config(quick: bool) -> DLRMConfig:
    """A heavy-lookup DLRM: big enough that NumPy kernels (which release
    the GIL) dominate the step, the regime the pool is built for."""
    if quick:
        # Same shape family at half the batch: steps must stay >100 ms
        # or pool dispatch overhead drowns the signal on CI runners.
        return DLRMConfig(
            name="bench-e2e-quick",
            minibatch=1024,
            global_minibatch=1024,
            local_minibatch=256,
            lookups_per_table=4,
            embedding_dim=128,
            table_rows=(4096,) * 4,
            dense_features=13,
            bottom_mlp=(512, 256, 128),
            top_mlp=(1024, 1024, 512, 256, 1),
        )
    # MLPerf-DLRM-like arithmetic density (deep MLPs, cache-resident
    # tables): the step is dominated by compute-bound, GIL-releasing
    # GEMMs, the regime where thread parallelism pays.  Lookup-heavy
    # configs are random-access memory-bound instead -- a single core
    # saturates the memory subsystem and no thread count helps.
    return DLRMConfig(
        name="bench-e2e",
        minibatch=2048,
        global_minibatch=2048,
        local_minibatch=512,
        lookups_per_table=4,
        embedding_dim=128,
        table_rows=(4096,) * 4,
        dense_features=13,
        bottom_mlp=(512, 256, 128),
        top_mlp=(1024, 1024, 512, 256, 1),
    )


def make_optimizer(storage: str):
    # The paper's best single-socket update (fused backward+update); the
    # same strategy runs at every worker count, so speedups isolate the
    # execution backend.
    strategy = FusedBackwardUpdate()
    if storage == "split_bf16":
        return SplitSGD(lr=0.05, strategy=strategy)
    return SGD(lr=0.05, strategy=strategy)


def build_trainer(
    cfg: DLRMConfig,
    storage: str,
    distributed: bool,
    backend: str = "thread",
    workers: int | None = None,
) -> Trainer:
    dataset = RandomRecDataset(cfg, seed=7)
    if distributed:
        cluster = SimCluster(RANKS, platform="cluster")
        dist = DistributedDLRM(cfg, cluster, seed=1, storage=storage)
        # functools.partial of a module-level function: picklable under
        # the process backend's spawn start method.
        dist.attach_optimizers(functools.partial(make_optimizer, storage))
        if backend == "process":
            return Trainer(ProcessRankExecutor(dist, dataset, cfg.global_minibatch, workers))
        return Trainer(InlineRankExecutor(dist, dataset, cfg.global_minibatch))
    model = DLRM(cfg, seed=1, storage=storage)
    opt = make_optimizer(storage)
    opt.register(model.parameters())
    return Trainer(LocalExecutor(model, opt, dataset, cfg.minibatch))


def final_state(trainer: Trainer) -> dict[str, np.ndarray]:
    return trainer.model_state_dict()


def run_scenario(
    cfg: DLRMConfig,
    storage: str,
    distributed: bool,
    backend: str,
    workers: int,
    steps: int,
    warmup: int,
) -> tuple[float, dict[str, np.ndarray], int]:
    """(steps/s over the timed window, final model state, effective workers)."""
    if backend == "process":
        trainer = build_trainer(cfg, storage, distributed, backend, workers)
        try:
            trainer.fit(warmup)
            t0 = time.perf_counter()
            trainer.fit(steps)
            elapsed = time.perf_counter() - t0
            state = final_state(trainer)
            effective = trainer._executor.n_workers
        finally:
            trainer.close()
        return steps / elapsed, state, effective
    with pooled(workers):
        trainer = build_trainer(cfg, storage, distributed)
        trainer.fit(warmup)
        t0 = time.perf_counter()
        trainer.fit(steps)
        elapsed = time.perf_counter() - t0
        state = final_state(trainer)
    return steps / elapsed, state, min(workers, os.cpu_count() or workers)


def traced_stages(cfg: DLRMConfig, storage: str, distributed: bool, steps: int = 2) -> dict:
    """Per-stage breakdown of a short traced run (thread backend,
    sequential pool).  Shares are wall-clock and therefore noisy; the CI
    gate only flags large share shifts, never absolute times."""
    set_tracer(Tracer(proc="main"))
    try:
        with pooled(1):
            trainer = build_trainer(cfg, storage, distributed)
            trainer.fit(steps)
            spans = trainer.drain_trace_spans()
            trainer.close()
    finally:
        set_tracer(None)
    return stage_breakdown(spans)


def virtual_comm(cfg: DLRMConfig, storage: str, steps: int = 2) -> dict:
    """Hidden-vs-exposed communication split on the *virtual* clocks.

    One short thread-backend run at pool width 1 -- the virtual clocks
    are bitwise identical across backends and worker counts, so the split
    holds for every cell of the scenario.  ``exposed_comm_share`` is the
    fraction of total virtual rank-time spent stalled in collective
    waits; ``hidden_s`` is transfer occupancy the schedule overlapped
    with compute."""
    with pooled(1):
        trainer = build_trainer(cfg, storage, distributed=True)
        trainer.fit(steps)
        cluster = trainer.dist.cluster
        exposed = sum(p.comm_time() for p in cluster.profilers)
        total = sum(c.now for c in cluster.clocks)
        transfer = cluster.network_busy_s
    exposed_per_rank = exposed / cluster.n_ranks
    return {
        "steps": steps,
        "exposed_comm_share": round(exposed / total, 4) if total else 0.0,
        "exposed_wait_s": round(exposed_per_rank, 6),
        "transfer_s": round(transfer, 6),
        "hidden_s": round(max(0.0, transfer - exposed_per_rank), 6),
    }


class _CountingPlan(FaultPlan):
    """Point-free plan that counts hook evaluations instead of firing.

    Reached because the hooks test ``faults is not None`` (never plan
    truthiness): installing it turns every fault site the run passes
    through into an increment, giving the empirical hooks-per-step."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def fire(self, site, **ctx):
        self.calls += 1
        return None


def _disabled_check_ns(calls: int = 200_000, batches: int = 5) -> float:
    """Median per-call ns of the disabled hook pattern: the exact
    ``if faults is not None: faults.fire(...)`` shape the hot loops run
    with no plan armed (median of batches, so a GC pause can't fail CI)."""
    faults = None
    per_batch = []
    for _ in range(batches):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            if faults is not None:
                faults.fire("overhead.probe")
        per_batch.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(per_batch)


def _armed_fire_ns(calls: int = 50_000, batches: int = 5) -> float:
    """Median per-call ns of an armed-but-never-matching ``fire`` --
    the cost ceiling while a chaos plan is loaded (informational; the
    gate covers only the disabled path)."""
    plan = FaultPlan.parse("train.step:step=999999999,action=raise")
    per_batch = []
    for _ in range(batches):
        t0 = time.perf_counter_ns()
        for k in range(calls):
            plan.fire("train.step", step=k)
        per_batch.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(per_batch)


def resilience_overhead(cfg: DLRMConfig, storage: str, steps_per_s: float) -> dict:
    """Projected disabled-path cost of the fault-injection hooks.

    Mirrors ``bench_obs_overhead.py``: hook evaluations per step (from a
    short run with a counting plan) x per-check ns of the disabled
    None-test / measured step wall time.  ``steps_per_s`` is the already
    -timed sequential baseline of the same shape, so the projection uses
    the real step the hooks sit in."""
    counter = _CountingPlan()
    probe_steps = 2
    with pooled(1):
        trainer = build_trainer(cfg, storage, distributed=False)
        trainer.faults = counter
        trainer.fit(probe_steps)
    check_ns = _disabled_check_ns()
    step_ns = 1e9 / steps_per_s
    hooks_per_step = counter.calls / probe_steps
    return {
        "hooks_per_step": round(hooks_per_step, 1),
        "disabled_check_ns": round(check_ns, 2),
        "armed_fire_ns": round(_armed_fire_ns(), 2),
        "step_ms": round(step_ns / 1e6, 3),
        "disabled_overhead_pct": round(
            100.0 * hooks_per_step * check_ns / step_ns, 5
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small shapes (CI smoke)")
    parser.add_argument("--steps", type=int, default=None, help="timed steps per scenario")
    parser.add_argument("--warmup", type=int, default=2, help="untimed warmup steps")
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_train_e2e.json", help="output JSON"
    )
    args = parser.parse_args()
    steps = args.steps if args.steps is not None else (4 if args.quick else 6)
    cfg = bench_config(args.quick)
    cores = os.cpu_count() or 1
    # Every scenario -- including the workers=1 baselines -- runs with
    # the same tuned allocator, so speedups isolate the pool, not glibc
    # mmap behaviour.  (The tuning itself is a large single-thread win;
    # multi-worker pools apply it automatically in production use.)
    tuned = tune_allocator_for_threads()

    results: dict[str, dict] = {}
    failures: list[str] = []
    print(
        f"end-to-end train bench (quick={args.quick}, steps={steps}, "
        f"cores={cores}, numpy {np.__version__})"
    )
    for distributed in (False, True):
        mode = "distributed" if distributed else "single"
        batch = cfg.global_minibatch if distributed else cfg.minibatch
        backends = ("thread", "process") if distributed else ("thread",)
        for storage in ("fp32", "split_bf16"):
            name = f"{mode}_{storage}"
            cells: dict[str, dict[str, dict]] = {b: {} for b in backends}
            base_rate, base_state = None, None
            vcomm = virtual_comm(cfg, storage) if distributed else None
            for backend in backends:
                for workers in WORKER_SWEEP:
                    rate, state, effective = run_scenario(
                        cfg, storage, distributed, backend, workers, steps, args.warmup
                    )
                    if base_rate is None:
                        # thread/workers=1: the sequential baseline.
                        base_rate, base_state = rate, state
                    identical = set(state) == set(base_state) and all(
                        np.array_equal(state[k], base_state[k]) for k in base_state
                    )
                    if not identical:
                        failures.append(f"{name}@{backend}/workers={workers}")
                    cell = {
                        "steps_per_s": round(rate, 3),
                        "rows_per_s": round(rate * batch, 1),
                        "speedup": round(rate / base_rate, 2),
                        "effective_workers": effective,
                        "bit_identical": bool(identical),
                    }
                    if vcomm is not None:
                        # Virtual clocks are backend/worker-invariant:
                        # the scenario split applies to every cell.
                        cell["exposed_comm_share"] = vcomm["exposed_comm_share"]
                    cells[backend][str(workers)] = cell
                    print(
                        f"{name:<22} {backend:<8} workers={workers}  "
                        f"{rate:7.3f} steps/s  {rate * batch:10.1f} rows/s  "
                        f"{rate / base_rate:5.2f}x  "
                        f"[{'bitwise' if identical else 'MISMATCH'}]"
                    )
            entry = {
                "mode": mode,
                "storage": storage,
                "batch": batch,
                "ranks": RANKS if distributed else 1,
                "backends": cells,
            }
            if vcomm is not None:
                entry["virtual_comm"] = vcomm
            if distributed:
                entry["process_vs_thread"] = {
                    str(w): round(
                        cells["process"][str(w)]["steps_per_s"]
                        / cells["thread"][str(w)]["steps_per_s"],
                        3,
                    )
                    for w in WORKER_SWEEP
                }
            entry["stages"] = traced_stages(cfg, storage, distributed)
            results[name] = entry

    base_rate = results["single_fp32"]["backends"]["thread"]["1"]["steps_per_s"]
    resilience = resilience_overhead(cfg, "fp32", base_rate)
    print(
        f"resilience hooks: {resilience['hooks_per_step']:.0f}/step, disabled check "
        f"{resilience['disabled_check_ns']:.0f} ns -> "
        f"{resilience['disabled_overhead_pct']:.5f}% projected overhead"
    )

    payload = {
        "bench": "train_e2e",
        "schema": SCHEMA,
        "telemetry_schema": TELEMETRY_SCHEMA,
        "quick": bool(args.quick),
        "steps": steps,
        "warmup": args.warmup,
        "ranks": RANKS,
        "cpu_count": cores,
        "allocator_tuned": tuned,
        "numpy": np.__version__,
        "config": cfg.name,
        "resilience": resilience,
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failures:
        print(f"BIT-IDENTITY FAILURES: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
