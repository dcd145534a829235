"""Simulated request stream + dynamic micro-batching policies.

Recommendation inference arrives as a stream of *queries*: one user each,
carrying a variable number of candidate items to score (Gupta et al.;
Hsia et al. show the batch-size distribution is the lever trading
latency for throughput).  This module synthesises such a stream --
Poisson arrivals, Zipf-distributed per-request candidate counts and a
Zipf-distributed user key reused for cache affinity -- and coalesces it
into micro-batches under a maximum-latency budget.

Three policies:

* ``static``   -- close a batch only once it holds ``max_batch_samples``
  candidates.  Maximum throughput, unbounded queueing delay at low load.
* ``dynamic``  -- close at the size threshold *or* when the oldest queued
  request has waited ``latency_budget_s``, whichever comes first.  The
  per-request batching delay is hard-bounded by the budget.
* ``adaptive`` -- like ``dynamic``, but the size target tracks the
  observed arrival rate (an EWMA of candidates/second): at low load the
  target shrinks toward single requests so queries dispatch immediately
  instead of idling out the full budget; at high load it grows back to
  ``max_batch_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.data.synthetic import bounded_zipf
from repro.util import rng_from

#: Micro-batcher coalescing policies.
POLICIES = ("static", "dynamic", "adaptive")


@dataclass(frozen=True)
class Request:
    """One inference query: score ``candidates`` items for one user."""

    rid: int
    #: Arrival time in seconds since stream start.
    arrival: float
    #: Number of candidate items to score (samples contributed).
    candidates: int
    #: User/session key (drives index correlation and cache affinity).
    key: int = 0

    def __post_init__(self) -> None:
        if self.candidates < 1:
            raise ValueError("a request must carry at least one candidate")
        if self.arrival < 0:
            raise ValueError("arrival time must be >= 0")


@dataclass(frozen=True)
class StreamConfig:
    """Parameters of the synthetic query stream."""

    requests: int = 1000
    #: Mean arrival rate (Poisson process), queries per second.
    mean_qps: float = 1000.0
    #: Candidate counts are 1 + bounded-Zipf draws on [0, max_candidates).
    max_candidates: int = 64
    candidate_alpha: float = 1.2
    #: Distinct user keys; hot users repeat (Zipf over keys).
    num_keys: int = 128
    key_alpha: float = 1.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("need at least one request")
        if self.mean_qps <= 0:
            raise ValueError("mean_qps must be positive")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")


def poisson_stream(cfg: StreamConfig) -> list[Request]:
    """Deterministic Poisson/Zipf query stream for ``cfg``."""
    rng = rng_from(cfg.seed, "serve.stream")
    gaps = rng.exponential(1.0 / cfg.mean_qps, size=cfg.requests)
    arrivals = np.cumsum(gaps)
    cands = 1 + bounded_zipf(
        rng, cfg.requests, cfg.max_candidates, alpha=cfg.candidate_alpha, scramble=False
    )
    keys = bounded_zipf(
        rng, cfg.requests, cfg.num_keys, alpha=cfg.key_alpha, scramble=False
    )
    return [
        Request(rid=i, arrival=float(arrivals[i]), candidates=int(cands[i]), key=int(keys[i]))
        for i in range(cfg.requests)
    ]


@dataclass(frozen=True)
class MicroBatch:
    """A dispatched group of requests scored in one forward pass."""

    requests: tuple[Request, ...]
    #: Simulation time at which the batcher handed the batch to a replica.
    dispatch_time: float

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a micro-batch must hold at least one request")

    @property
    def samples(self) -> int:
        """Total candidate rows scored by this batch."""
        return sum(r.candidates for r in self.requests)


class MicroBatcher:
    """Coalesces an arrival-ordered request stream into micro-batches.

    The batcher is an *offline* planner over a recorded stream: given the
    full arrival sequence it reproduces exactly what the online policy
    would have done (deterministic, so tests can pin bounds).  A batch is
    closed when its accumulated candidate count reaches the size target,
    or -- for the deadline policies -- when the next arrival would push
    the oldest queued request past the latency budget, in which case the
    batch dispatches *at the deadline*, not at the next arrival.
    """

    def __init__(
        self,
        policy: str = "dynamic",
        max_batch_samples: int = 256,
        latency_budget_s: float = 5e-3,
        ewma_alpha: float = 0.2,
    ):
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if max_batch_samples < 1:
            raise ValueError("max_batch_samples must be >= 1")
        if latency_budget_s <= 0:
            raise ValueError("latency_budget_s must be positive")
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.policy = policy
        self.max_batch_samples = max_batch_samples
        self.latency_budget_s = latency_budget_s
        self.ewma_alpha = ewma_alpha

    def _target(self, rate_samples_per_s: float) -> int:
        """Adaptive size target: what the budget window is expected to fill."""
        if self.policy != "adaptive":
            return self.max_batch_samples
        expect = rate_samples_per_s * self.latency_budget_s
        return int(min(self.max_batch_samples, max(1.0, expect)))

    def plan(self, requests: Iterable[Request]) -> list[MicroBatch]:
        """Partition ``requests`` (sorted by arrival) into micro-batches."""
        stream: Sequence[Request] = sorted(requests, key=lambda r: r.arrival)
        if not stream:
            return []
        deadline_bound = self.policy in ("dynamic", "adaptive")
        batches: list[MicroBatch] = []
        open_reqs: list[Request] = []
        open_samples = 0
        # Rate = EWMA(candidates) / EWMA(gap).  Averaging the *ratio*
        # c/gap instead would be heavy-tailed (1/gap of a Poisson process
        # has no mean) and the adaptive target would saturate on noise.
        ewma_gap = max(stream[0].arrival, 1e-9)
        ewma_cand = float(stream[0].candidates)
        last_arrival = 0.0

        def close(at: float) -> None:
            nonlocal open_reqs, open_samples
            batches.append(MicroBatch(requests=tuple(open_reqs), dispatch_time=at))
            open_reqs = []
            open_samples = 0

        for req in stream:
            gap = max(req.arrival - last_arrival, 1e-9)
            last_arrival = req.arrival
            ewma_gap += self.ewma_alpha * (gap - ewma_gap)
            ewma_cand += self.ewma_alpha * (req.candidates - ewma_cand)
            rate = ewma_cand / ewma_gap
            if open_reqs and deadline_bound:
                deadline = open_reqs[0].arrival + self.latency_budget_s
                if req.arrival >= deadline:
                    close(at=deadline)
            open_reqs.append(req)
            open_samples += req.candidates
            if open_samples >= self._target(rate):
                close(at=req.arrival)
        if open_reqs:
            # Tail flush: deadline policies dispatch at the budget expiry,
            # the static policy only once the stream is known to be over.
            if deadline_bound:
                close(at=open_reqs[0].arrival + self.latency_budget_s)
            else:
                close(at=stream[-1].arrival)
        return batches
