"""Graceful serve degradation: the policy knobs and the breaker state.

:class:`~repro.serve.replica.ReplicaSet` consults a
:class:`~repro.resilience.faults.FaultPlan` (site ``serve.replica``,
actions ``die``/``slow``/``error``) and the per-replica
:class:`BreakerState` before every micro-batch lands; the
:class:`DegradePolicy` here tunes what it does about a failure:

* **death detection** -- a ``die`` fault removes the replica from
  routing permanently; in-flight work retries elsewhere.
* **circuit breaker** -- ``error_threshold`` consecutive errors open a
  replica's breaker for ``cooldown_s`` of virtual time (escalating
  exponentially on repeat trips); the first dispatch after the cooldown
  is the half-open probe, and its success readmits the replica.
* **retry** -- a failed dispatch re-routes with capped exponential
  backoff (:func:`repro.util.backoff_delays`, jitter seeded by the
  request id, so the schedule is deterministic).
* **hedge** -- when the picked replica's queue wait exceeds
  ``hedge_wait_s`` and another replica frees earlier, the batch is
  dispatched to both and the earlier completion wins (the loser's work
  is charged to its clock -- hedging buys latency with throughput).
* **load shedding** -- when even the best queue wait exceeds
  ``shed_wait_s``, the batch is served *degraded*: only
  ``shed_fraction`` of its embedding look-ups are scored, so the
  response still completes (every request always completes) but at
  reduced quality; the shed rate is reported alongside p99.

Everything runs on the cluster's virtual clocks, so chaos scenarios are
bit-reproducible; degradation events surface as ``repro.obs`` spans
(``serve.degrade.*``) and on :attr:`ServingResult.events
<repro.serve.replica.ServingResult.events>`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DegradePolicy:
    """Knobs of the degradation machinery (all times are virtual)."""

    #: Consecutive errors that open a replica's breaker.
    error_threshold: int = 3
    #: Base breaker cooldown; doubles on every repeat trip.
    cooldown_s: float = 0.010
    #: Dispatch attempts per micro-batch (first try + retries).
    retry_attempts: int = 3
    #: Base retry backoff (capped exponential, seeded jitter).
    retry_backoff_s: float = 0.0005
    #: Backoff cap.
    retry_cap_s: float = 0.010
    #: Queue wait beyond which a second (hedged) dispatch is issued.
    hedge_wait_s: float = 0.005
    #: Queue wait beyond which the batch is served degraded (shed).
    shed_wait_s: float = 0.020
    #: Fraction of a shed batch's look-ups that are still scored.
    shed_fraction: float = 0.25
    #: Service-time multiplier of a ``slow`` fault without ``seconds``.
    slow_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.error_threshold < 1:
            raise ValueError("error_threshold must be >= 1")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be in (0, 1]")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1")
        for name in (
            "cooldown_s", "retry_backoff_s", "retry_cap_s", "hedge_wait_s", "shed_wait_s"
        ):
            # ``inf`` is a legal wait (never hedge, never shed); NaN is not.
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class BreakerState:
    """Liveness + circuit-breaker state of one replica."""

    rank: int
    alive: bool = True
    #: Consecutive errors since the last success.
    errors: int = 0
    #: Virtual time before which the breaker is open.
    open_until: float = 0.0
    #: Times the breaker has tripped (escalates the cooldown).
    trips: int = 0

    def available(self, now: float) -> bool:
        return self.alive and now >= self.open_until
