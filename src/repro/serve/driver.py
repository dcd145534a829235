"""End-to-end serving experiments: stream -> batcher -> replicas -> SLA.

This is the assembly layer shared by ``repro.cli serve`` and
``benchmarks/bench_serving.py``: it synthesises the query stream, plans
micro-batches under a policy, routes them onto a simulated multi-socket
:class:`~repro.parallel.cluster.SimCluster`, and reduces the per-request
latencies into the throughput-vs-p99 table and SLA frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import DLRMConfig, get_config
from repro.data.synthetic import bounded_zipf
from repro.obs.tracer import trace
from repro.parallel.cluster import SimCluster
from repro.resilience.faults import FaultPlan
from repro.serve.batcher import MicroBatch, MicroBatcher, Request, StreamConfig, poisson_stream
from repro.serve.degrade import DegradePolicy
from repro.serve.replica import ReplicaSet, ServingResult
from repro.serve.sla import ServingCost
from repro.util import rng_from

#: Key stride scattering each user's Zipf head across the id space.
_KEY_STRIDE = 7919
#: Affine multiplier reused from the training-side Zipf scrambler.
_SCRAMBLE_PRIME = 2654435761


@dataclass(frozen=True)
class ServingWorkload:
    """Index synthesis for the serving stream.

    Each candidate row performs ``lookups_per_candidate`` look-ups per
    table, drawn bounded-Zipf (``index_alpha``) and mapped through a
    per-user affine bijection: requests sharing a user ``key`` reuse the
    same hot rows (what cache affinity exploits), while different keys
    touch mostly disjoint sets.  Synthesis is a pure function of
    (seed, request id, table), so every sweep point replays the
    identical workload; the memo keeps replayed requests cheap.
    """

    cfg: DLRMConfig
    lookups_per_candidate: int = 1
    index_alpha: float = 1.05
    seed: int = 0
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def request_indices(self, req: Request) -> list[np.ndarray]:
        """Per-table index vectors for one request (memoised)."""
        got = self._memo.get(req.rid)
        if got is None:
            got = []
            for t in range(self.cfg.num_tables):
                rows = self.cfg.table_rows[t]
                rng = rng_from(self.seed, "serve.req", req.rid, t)
                ranks = bounded_zipf(
                    rng,
                    req.candidates * self.lookups_per_candidate,
                    rows,
                    alpha=self.index_alpha,
                    scramble=False,
                )
                got.append(
                    ((ranks + req.key * _KEY_STRIDE) * _SCRAMBLE_PRIME) % rows
                )
            self._memo[req.rid] = got
        return got

    def batch_indices(self, mb: MicroBatch) -> list[np.ndarray]:
        """Per-table index vectors of a whole micro-batch."""
        per_req = [self.request_indices(r) for r in mb.requests]
        return [
            np.concatenate([pr[t] for pr in per_req])
            for t in range(self.cfg.num_tables)
        ]


@dataclass(frozen=True)
class ServeParams:
    """One serving operating point."""

    config: str = "mlperf"
    requests: int = 2000
    mean_qps: float = 4000.0
    policy: str = "dynamic"
    router: str = "least_loaded"
    replicas: int = 4
    max_batch_samples: int = 256
    latency_budget_ms: float = 5.0
    cache_rows: int = 8192
    cache_policy: str = "lru"
    platform: str = "cluster"
    seed: int = 0
    #: Fault-plan string (``serve.replica:...``); non-empty injects the
    #: failures and turns the default :class:`DegradePolicy` on.
    fault: str = ""

    @property
    def label(self) -> str:
        return f"{self.policy}/{self.router}/{self.latency_budget_ms:g}ms"


def run_serving(
    params: ServeParams,
    workload: ServingWorkload | None = None,
    stream: list[Request] | None = None,
    degrade: DegradePolicy | None = None,
) -> tuple[ServingResult, dict[str, object]]:
    """Simulate one operating point; returns (result, summary row).

    ``workload``/``stream`` may be passed in to share index synthesis
    across operating points (see :func:`sweep_budgets`); they must have
    been built from the same config and seed as ``params``.  A non-empty
    ``params.fault`` (or an explicit ``degrade`` policy) turns hedging
    and shedding on; the summary row then carries the shed rate and
    recovery counters.
    """
    cfg = get_config(params.config)
    if workload is None:
        workload = ServingWorkload(cfg, seed=params.seed)
    if stream is None:
        stream = poisson_stream(
            StreamConfig(
                requests=params.requests, mean_qps=params.mean_qps, seed=params.seed
            )
        )
    batcher = MicroBatcher(
        policy=params.policy,
        max_batch_samples=params.max_batch_samples,
        latency_budget_s=params.latency_budget_ms * 1e-3,
    )
    with trace("serve.batcher", requests=len(stream)) as sp:
        batches = batcher.plan(stream)
        sp.add(batches=len(batches))
    cluster = SimCluster(params.replicas, platform=params.platform)
    cost = ServingCost(cfg, socket=cluster.socket, calib=cluster.calib)
    replicas = ReplicaSet(
        cluster,
        cost,
        cache_rows=params.cache_rows,
        cache_policy=params.cache_policy,
        router=params.router,
        faults=FaultPlan.parse(params.fault) if params.fault else None,
        policy=degrade,
    )
    result = replicas.serve(batches, workload.batch_indices)
    row: dict[str, object] = {
        "label": params.label,
        "policy": params.policy,
        "router": params.router,
        "budget_ms": params.latency_budget_ms,
        "batches": result.batches,
        "batch_samples": result.mean_batch_samples,
        "hit_rate": result.hit_rate,
    }
    row.update(result.report().row())
    if replicas.degrades:
        row.update(
            {
                "shed_rate": result.shed_rate,
                "retries": result.retries,
                "hedges": result.hedges,
                "dead_replicas": len(result.dead_replicas),
                "breaker_trips": result.breaker_trips,
            }
        )
    return result, row


def sweep_budgets(
    params: ServeParams,
    budgets_ms: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0),
    degrade: DegradePolicy | None = None,
) -> list[dict[str, object]]:
    """Throughput-vs-p99 sweep over the micro-batcher's latency budget.

    The same stream and workload replay at every point (identical
    seeds), so the sweep isolates the batching policy's effect -- and
    one shared :class:`ServingWorkload` memoises index synthesis across
    all points instead of redrawing 2000 x S Zipf vectors per budget.
    """
    workload = ServingWorkload(get_config(params.config), seed=params.seed)
    stream = poisson_stream(
        StreamConfig(
            requests=params.requests, mean_qps=params.mean_qps, seed=params.seed
        )
    )
    rows = []
    for budget in budgets_ms:
        _, row = run_serving(
            replace(params, latency_budget_ms=budget),
            workload=workload,
            stream=stream,
            degrade=degrade,
        )
        rows.append(row)
    return rows
