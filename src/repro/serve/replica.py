"""Multi-socket replica placement and latency-aware request routing.

Serving replicates the full model once per socket (inference needs no
gradient exchange, so -- unlike training -- sockets are independent and
the fabric only carries requests).  Replicas live on the ranks of a
:class:`~repro.parallel.cluster.SimCluster`: each rank's
:class:`~repro.parallel.cluster.VirtualClock` is the replica's
busy-until time, and the cluster's socket spec prices the per-batch service time through
:class:`~repro.serve.sla.ServingCost`.

Routers:

* ``round_robin``    -- cycle through replicas; oblivious baseline.
* ``least_loaded``   -- send to the replica whose clock frees earliest
  (latency-aware: minimises queueing delay).
* ``cache_affinity`` -- hash the batch's user key onto a replica so a
  user's hot rows keep re-hitting the same fast tier; trades queueing
  balance for hit rate (Gupta et al.'s locality observation).

:meth:`ReplicaSet.serve` is the one dispatch loop, with or without
injected failures: what it does about a dead, erroring, slow or
overloaded replica is :mod:`repro.serve.degrade`'s policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.tracer import trace
from repro.parallel.cluster import SimCluster
from repro.resilience.errors import ResilienceError
from repro.resilience.faults import FaultPlan
from repro.serve.batcher import MicroBatch
from repro.serve.cache import EmbeddingCache
from repro.serve.degrade import BreakerState, DegradePolicy
from repro.serve.sla import LatencyReport, ServingCost, latency_report
from repro.util import backoff_delays

#: Routing policies.
ROUTERS = ("round_robin", "least_loaded", "cache_affinity")


class Router:
    """Picks the serving rank for each micro-batch."""

    def __init__(self, policy: str, n_replicas: int):
        if policy not in ROUTERS:
            raise ValueError(f"router must be one of {ROUTERS}, got {policy!r}")
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        self.policy = policy
        self.n_replicas = n_replicas
        self._next = 0

    def pick(self, mb: MicroBatch, busy_until: list[float]) -> int:
        """Rank to serve ``mb`` given each replica's busy-until time."""
        if len(busy_until) != self.n_replicas:
            raise ValueError("busy_until length != replica count")
        if self.policy == "round_robin":
            rank = self._next
            self._next = (self._next + 1) % self.n_replicas
            return rank
        if self.policy == "least_loaded":
            return int(np.argmin(busy_until))
        # cache_affinity: the oldest request opened the batch; its user
        # key decides the replica so repeat users land on a warm cache.
        return mb.requests[0].key % self.n_replicas


@dataclass
class ReplicaStats:
    """Per-replica accounting of one serving run."""

    rank: int
    batches: int = 0
    samples: int = 0
    busy_s: float = 0.0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ServingResult:
    """Everything a serving run produced, ready for SLA accounting."""

    #: Per-request latency (completion - arrival), request order.
    latencies: np.ndarray
    #: Wall time from stream start to the last completion.
    makespan_s: float
    replicas: list[ReplicaStats] = field(default_factory=list)
    batches: int = 0
    # The degradation ledger; all zero/empty for a run nothing went
    # wrong in.
    retries: int = 0
    hedges: int = 0
    #: Requests served degraded (shed); they still completed.
    shed_requests: int = 0
    dead_replicas: list[int] = field(default_factory=list)
    breaker_trips: int = 0
    #: Degradation events in virtual-time order: {event, t, ...}.
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        hits = sum(r.hits for r in self.replicas)
        total = hits + sum(r.misses for r in self.replicas)
        return hits / total if total else 0.0

    @property
    def mean_batch_samples(self) -> float:
        samples = sum(r.samples for r in self.replicas)
        return samples / self.batches if self.batches else 0.0

    @property
    def shed_rate(self) -> float:
        total = int(self.latencies.size)
        return self.shed_requests / total if total else 0.0

    def report(self) -> LatencyReport:
        return latency_report(self.latencies, self.makespan_s)


class ReplicaSet:
    """One full-model replica per rank of a :class:`SimCluster`, which
    keeps serving through replica failure.

    ``faults`` drives the injected failures (site ``serve.replica``,
    matched on ``replica`` -- the rank -- ``request`` -- the batch's
    oldest request id -- and ``seq`` -- the dispatch index); ``policy``
    tunes the breaker/retry/hedge/shed machinery.  Given neither, the
    set never hedges or sheds: overload then only queues, which is the
    plain serving experiment every sweep and figure is priced on.
    """

    def __init__(
        self,
        cluster: SimCluster,
        cost: ServingCost,
        cache_rows: int,
        cache_policy: str = "lru",
        router: str | Router = "least_loaded",
        faults: FaultPlan | None = None,
        policy: DegradePolicy | None = None,
    ):
        self.cluster = cluster
        self.cost = cost
        self.router = (
            router if isinstance(router, Router) else Router(router, cluster.n_ranks)
        )
        if self.router.n_replicas != cluster.n_ranks:
            raise ValueError("router sized for a different replica count")
        self.caches = [
            EmbeddingCache(cache_rows, cost.cfg.table_rows, policy=cache_policy)
            for _ in cluster.ranks
        ]
        #: Whether the run asked for degradation (a plan or a policy), so
        #: its summary reports the ledger.
        self.degrades = faults is not None or policy is not None
        if not self.degrades:
            policy = DegradePolicy(hedge_wait_s=math.inf, shed_wait_s=math.inf)
        self.faults = faults if faults is not None else FaultPlan()
        self.policy = policy or DegradePolicy()
        self.states = [BreakerState(rank=r) for r in cluster.ranks]
        self.events: list[dict[str, Any]] = []

    # -- bookkeeping ---------------------------------------------------------

    def _event(self, kind: str, t: float, **data: Any) -> None:
        self.events.append({"event": kind, "t": t, **data})
        with trace(f"serve.degrade.{kind}", t=t, **data):
            pass

    def _note_error(self, st: BreakerState, now: float) -> None:
        st.errors += 1
        if st.errors >= self.policy.error_threshold and st.open_until <= now:
            st.open_until = now + self.policy.cooldown_s * (2.0**st.trips)
            st.trips += 1
            self._event("breaker_open", now, replica=st.rank, until=st.open_until)

    def _note_success(self, st: BreakerState, now: float) -> None:
        if st.errors >= self.policy.error_threshold:
            # The half-open probe succeeded: readmit the replica.
            self._event("readmit", now, replica=st.rank)
        st.errors = 0

    def _alive(self) -> list[BreakerState]:
        alive = [s for s in self.states if s.alive]
        if not alive:
            raise ResilienceError(
                "all serve replicas are dead; nothing left to route to"
            )
        return alive

    # -- routing -------------------------------------------------------------

    def _pick(self, mb: MicroBatch, avail: list[int]) -> int:
        busy = [
            self.cluster.clocks[r].now if r in avail else math.inf
            for r in self.cluster.ranks
        ]
        with trace("serve.route"):
            rank = self.router.pick(mb, busy)
        if rank not in avail:
            # round_robin / cache_affinity ignore health; remap onto the
            # available set without disturbing their policy state.
            rank = avail[rank % len(avail)]
        return rank

    # -- one batch on one replica --------------------------------------------

    def _service(
        self, mb: MicroBatch, rank: int, indices: list[np.ndarray], shed: bool
    ) -> tuple[float, int, int, int]:
        """(service time, hits, misses, samples) of ``mb`` on ``rank``;
        a shed batch scores only ``shed_fraction`` of its look-ups."""
        cache = self.caches[rank]
        hits = misses = 0
        samples = (
            max(1, int(mb.samples * self.policy.shed_fraction)) if shed else mb.samples
        )
        with trace("serve.infer", rank=rank, rows=samples) as sp:
            for t, idx in enumerate(indices):
                if shed:
                    idx = idx[: max(1, int(len(idx) * self.policy.shed_fraction))]
                rep = cache.access(t, idx)
                hits += rep.hits
                misses += rep.misses
            lookups = hits + misses
            hit_rate = hits / lookups if lookups else 0.0
            service = self.cost.batch_time(
                samples, total_lookups=lookups, hit_rate=hit_rate
            )
            sp.add(cache_hits=hits, cache_misses=misses)
        return service, hits, misses, samples

    def _land(
        self,
        stats: list[ReplicaStats],
        rank: int,
        now: float,
        service: float,
        hits: int,
        misses: int,
        samples: int,
    ) -> float:
        """Advance ``rank``'s clock past the batch; returns completion.

        The batch starts at ``max(now, replica clock)`` -- queueing on a
        busy replica is exactly the exposed wait the router tries to avoid.
        """
        clock = self.cluster.clocks[rank]
        start = max(now, clock.now)
        done = start + service
        clock.advance_to(done)
        st = stats[rank]
        st.batches += 1
        st.samples += samples
        st.busy_s += service
        st.hits += hits
        st.misses += misses
        return done

    # -- the serve loop ------------------------------------------------------

    def serve(self, batches: list[MicroBatch], indices_for) -> ServingResult:
        """Serve ``batches`` to completion, through any injected failures.

        ``indices_for(mb)`` supplies the per-table embedding index
        vectors of a micro-batch (the workload model owns index
        synthesis; see :class:`repro.serve.driver.ServingWorkload`); it
        is called once per batch, in dispatch order.  Every request
        completes: failed dispatches retry with backoff on the surviving
        replicas, overload sheds to a degraded (cheaper) response, and
        only the death of *every* replica raises.
        """
        res = ServingResult(
            latencies=np.empty(0),
            makespan_s=0.0,
            replicas=[ReplicaStats(rank=r) for r in self.cluster.ranks],
        )
        lat: dict[int, float] = {}
        for seq, mb in enumerate(sorted(batches, key=lambda b: b.dispatch_time)):
            done = self._dispatch(mb, seq, indices_for(mb), res)
            res.batches += 1
            res.makespan_s = max(res.makespan_s, done)
            for r in mb.requests:
                lat[r.rid] = done - r.arrival
        res.latencies = np.array([lat[rid] for rid in sorted(lat)], dtype=np.float64)
        res.dead_replicas = [s.rank for s in self.states if not s.alive]
        res.breaker_trips = sum(s.trips for s in self.states)
        res.events = list(self.events)
        return res

    def _dispatch(
        self, mb: MicroBatch, seq: int, indices: list[np.ndarray], res: ServingResult
    ) -> float:
        """Land ``mb`` on a replica (two when hedged); returns completion."""
        pol = self.policy
        clocks = self.cluster.clocks
        rid0 = mb.requests[0].rid
        delays: list[float] | None = None
        offset = 0.0
        tried: set[int] = set()
        for attempt in range(pol.retry_attempts):
            now = mb.dispatch_time
            if attempt:
                if delays is None:
                    # One seeded schedule per micro-batch, built only once
                    # a dispatch has failed.
                    delays = backoff_delays(
                        pol.retry_attempts, pol.retry_backoff_s,
                        cap=pol.retry_cap_s, jitter_seed=rid0,
                    )
                offset += delays[attempt - 1]
                now = mb.dispatch_time + offset
                res.retries += 1
                self._event("retry", now, replica=None, request=rid0, attempt=attempt)
            avail = [
                s.rank for s in self.states if s.available(now) and s.rank not in tried
            ]
            if not avail:
                # Everything is open or already tried: wait for the
                # earliest breaker to half-open (readmission path).
                alive = self._alive()
                untried = [s for s in alive if s.rank not in tried]
                if not untried:
                    tried.clear()
                    untried = alive
                st = min(untried, key=lambda s: s.open_until)
                now = max(now, st.open_until)
                avail = [st.rank]
            rank = self._pick(mb, avail)
            st = self.states[rank]
            point = self.faults.match("serve.replica", replica=rank, request=rid0, seq=seq)
            action = point.action if point is not None else None
            if action in ("die", "error"):
                if action == "die":
                    st.alive = False
                else:
                    self._note_error(st, now)
                tried.add(rank)
                self._event(f"replica_{action}", now, replica=rank, request=rid0)
                continue
            wait = max(0.0, clocks[rank].now - now)
            shed = wait > pol.shed_wait_s
            service, hits, misses, samples = self._service(mb, rank, indices, shed)
            if action == "slow":
                service = (
                    service + point.seconds if point.seconds else service * pol.slow_factor
                )
                self._event("replica_slow", now, replica=rank, request=rid0)
            done = self._land(res.replicas, rank, now, service, hits, misses, samples)
            if shed:
                res.shed_requests += len(mb.requests)
                self._event("shed", now, replica=rank, requests=len(mb.requests))
            elif wait > pol.hedge_wait_s:
                # Queueing but below the shed line: hedge onto the
                # replica that frees earliest, if that helps.
                alts = [
                    s.rank
                    for s in self.states
                    if s.available(now) and s.rank != rank and s.rank not in tried
                ]
                alt = min(alts, key=lambda r: clocks[r].now, default=rank)
                if clocks[alt].now < clocks[rank].now:
                    done2 = self._land(
                        res.replicas, alt, now, *self._service(mb, alt, indices, False)
                    )
                    done = min(done, done2)
                    res.hedges += 1
                    self._event("hedge", now, replica=rank, alt=alt)
            self._note_success(st, now)
            return done
        # Out of attempts (every try hit an injected failure): force a
        # degraded response on the least-loaded survivor so the requests
        # still complete.
        rank = min((s.rank for s in self._alive()), key=lambda r: clocks[r].now)
        now = mb.dispatch_time + offset
        done = self._land(res.replicas, rank, now, *self._service(mb, rank, indices, True))
        res.shed_requests += len(mb.requests)
        self._event("forced", now, replica=rank, requests=len(mb.requests))
        self._note_success(self.states[rank], now)
        return done
