"""Graceful serve degradation: breakers, retries, hedging, shedding.

The acceptance pin: a replica killed mid-stream never loses a request
-- work re-routes to the survivors, p99 and the shed rate are reported,
and the whole chaos scenario replays bit-identically (virtual time).
"""

import functools

import numpy as np
import pytest

from repro.core.config import get_config
from repro.obs import Tracer, set_tracer
from repro.resilience.errors import ResilienceError
from repro.resilience.faults import FaultPlan
from repro.serve import ServeParams
from repro.serve.degrade import DegradePolicy
from repro.serve.driver import ServingWorkload
from repro.serve import run_serving as simulate
from repro.serve.degrade import BreakerState
from tests.serve import dispatch_bits


def params(**over) -> ServeParams:
    base = dict(
        config="small", requests=300, mean_qps=3000.0, replicas=3, seed=1
    )
    base.update(over)
    return ServeParams(**base)


class TestPolicy:
    @pytest.mark.parametrize(
        "bad",
        [
            {"error_threshold": 0},
            {"retry_attempts": 0},
            {"shed_fraction": 0.0},
            {"shed_fraction": 1.5},
            {"slow_factor": 0.5},
            {"cooldown_s": -1.0},
            {"retry_backoff_s": -0.0005},
            {"retry_cap_s": -1.0},
            {"hedge_wait_s": -5.0},
            {"shed_wait_s": -1.0},
            {"shed_wait_s": float("nan")},
        ],
    )
    def test_rejects_bad_knobs(self, bad):
        with pytest.raises(ValueError):
            DegradePolicy(**bad)

    def test_breaker_availability(self):
        st = BreakerState(rank=0)
        assert st.available(0.0)
        st.open_until = 1.0
        assert not st.available(0.5)
        assert st.available(1.0)
        st.alive = False
        assert not st.available(2.0)


@functools.lru_cache(maxsize=None)
def workload(config: str, seed: int, requests: int) -> ServingWorkload:
    return ServingWorkload(get_config(config), seed=seed)


def run_serving(p: ServeParams, **kw):
    """``run_serving`` over one index memo per stream: most cases here
    replay the same 300 requests, and synthesis is most of a small run."""
    return simulate(p, workload=workload(p.config, p.seed, p.requests), **kw)


def traced(fn):
    """(fn(), names of the spans it emitted)."""
    tracer = Tracer()
    set_tracer(tracer)
    try:
        return fn(), {span["name"] for span in tracer.drain()}
    finally:
        set_tracer(None)


class TestPlainServing:
    """Given neither a plan nor a policy, the one loop only queues."""

    @staticmethod
    def overloaded():
        shared, stream = dispatch_bits.shared()
        return simulate(ServeParams(**dispatch_bits.LOAD), workload=shared, stream=stream)

    def test_overload_without_a_plan_never_sheds_or_hedges(self):
        (plain, row), names = traced(self.overloaded)
        # Queued far past the line at which the default policy sheds (the
        # fixture's fault cells, same load, shed most of their requests).
        assert row["p99_ms"] > 5 * DegradePolicy().shed_wait_s * 1e3
        assert plain.shed_requests == plain.hedges == plain.retries == 0
        assert plain.shed_rate == 0.0 and plain.events == []
        assert "shed_rate" not in row
        assert {"serve.route", "serve.infer"} <= names
        assert not any(name.startswith("serve.degrade.") for name in names)

    def test_a_traced_fault_run_keeps_the_serving_spans(self):
        (result, _), names = traced(
            lambda: run_serving(params(fault=TestReplicaDeath.FAULT))
        )
        assert result.dead_replicas == [1]
        assert {
            "serve.batcher", "serve.route", "serve.infer",
            "serve.degrade.replica_die", "serve.degrade.retry",
        } <= names


class TestReplicaDeath:
    FAULT = "serve.replica:replica=1,action=die"

    def test_every_request_completes_with_p99(self):
        result, row = run_serving(params(fault=self.FAULT))
        assert row["requests"] == 300
        assert int(result.latencies.size) == 300
        assert (result.latencies >= 0).all()
        assert row["p99_ms"] > 0
        assert result.dead_replicas == [1]
        assert "shed_rate" in row
        assert any(e["event"] == "replica_die" for e in result.events)

    def test_chaos_run_is_deterministic(self):
        a, _ = run_serving(params(fault=self.FAULT))
        b, _ = run_serving(params(fault=self.FAULT))
        assert np.array_equal(a.latencies, b.latencies)
        assert a.events == b.events

    def test_dead_replica_serves_nothing(self):
        # The die point matches replica 1's first dispatch, so it dies
        # before ever landing a batch; everything routes around it.
        result, _ = run_serving(params(fault=self.FAULT))
        st = result.replicas[1]
        assert st.batches == 0 and st.busy_s == 0.0
        served = sum(r.batches for r in result.replicas)
        assert served == result.batches

    def test_all_replicas_dead_raises(self):
        fault = ";".join(f"serve.replica:replica={r},action=die" for r in range(2))
        with pytest.raises(ResilienceError, match="all serve replicas"):
            run_serving(params(replicas=2, fault=fault))


class TestCircuitBreaker:
    FAULT = "serve.replica:replica=2,action=error,count=4"

    def test_errors_trip_then_readmit(self):
        result, _ = run_serving(params(fault=self.FAULT))
        kinds = [e["event"] for e in result.events]
        assert "breaker_open" in kinds
        assert "readmit" in kinds
        assert kinds.index("breaker_open") < kinds.index("readmit")
        assert result.breaker_trips >= 1
        assert result.retries >= 4
        assert int(result.latencies.size) == 300

    def test_threshold_respected(self):
        # Two errors under a threshold of 3 never open the breaker.
        fault = "serve.replica:replica=2,action=error,count=2"
        result, _ = run_serving(
            params(fault=fault), degrade=DegradePolicy(error_threshold=3)
        )
        assert not any(e["event"] == "breaker_open" for e in result.events)


class TestSlow:
    def test_slow_replica_inflates_latency_not_count(self):
        slow, _ = run_serving(
            params(fault="serve.replica:replica=0,action=slow,count=5")
        )
        clean, _ = run_serving(params(), degrade=DegradePolicy())
        assert int(slow.latencies.size) == int(clean.latencies.size) == 300
        assert slow.latencies.sum() > clean.latencies.sum()
        assert sum(1 for e in slow.events if e["event"] == "replica_slow") == 5


class TestShedding:
    def test_overload_sheds_but_completes(self):
        # Two of three replicas die and the survivor is slowed for its
        # first batches: the queue backs up past the shed line.
        fault = (
            "serve.replica:replica=1,action=die;"
            "serve.replica:replica=2,action=die;"
            "serve.replica:replica=0,action=slow,count=3"
        )
        result, row = run_serving(
            params(requests=400, mean_qps=20000.0, seed=2, fault=fault)
        )
        assert row["requests"] == 400
        assert result.shed_requests > 0
        assert 0.0 < result.shed_rate <= 1.0
        assert row["shed_rate"] == result.shed_rate
        # Shed responses are degraded, not dropped: latencies exist for all.
        assert int(result.latencies.size) == 400

    def test_no_shedding_when_unloaded(self):
        result, _ = run_serving(params(), degrade=DegradePolicy(shed_wait_s=10.0))
        assert result.shed_requests == 0


class TestHedging:
    def test_affinity_router_hedges_under_queueing(self):
        pol = DegradePolicy(hedge_wait_s=0.0001, shed_wait_s=10.0)
        result, _ = run_serving(
            params(requests=300, mean_qps=12000.0, seed=3, router="cache_affinity"),
            degrade=pol,
        )
        assert result.hedges > 0
        assert int(result.latencies.size) == 300

    def test_least_loaded_never_hedges(self):
        # least_loaded already picked the earliest-free replica, so a
        # hedge can never complete earlier; the loop must notice.
        pol = DegradePolicy(hedge_wait_s=0.0, shed_wait_s=10.0)
        result, _ = run_serving(
            params(requests=200, mean_qps=12000.0, seed=3, router="least_loaded"),
            degrade=pol,
        )
        assert result.hedges == 0


class TestExhaustedRetries:
    def test_forced_degraded_completion(self):
        # Every attempt of the first dispatches hits an error (counts
        # far above retry_attempts), so the loop must force-serve.
        fault = "serve.replica:action=error,count=50"
        result, _ = run_serving(
            params(requests=50, mean_qps=500.0, seed=4, fault=fault),
            degrade=DegradePolicy(retry_attempts=2, error_threshold=100),
        )
        assert int(result.latencies.size) == 50
        assert any(e["event"] == "forced" for e in result.events)
        assert result.shed_requests > 0


class TestFaultPlanIntegration:
    def test_plan_records_firings(self):
        plan = FaultPlan.parse("serve.replica:replica=1,action=die")
        from repro.core.config import get_config
        from repro.parallel.cluster import SimCluster
        from repro.serve.driver import ServingWorkload
        from repro.serve.replica import ReplicaSet
        from repro.serve.sla import ServingCost
        from repro.serve.batcher import MicroBatcher, StreamConfig, poisson_stream

        cfg = get_config("small")
        stream = poisson_stream(StreamConfig(requests=100, mean_qps=2000.0, seed=1))
        batches = MicroBatcher(policy="dynamic").plan(stream)
        cluster = SimCluster(3, platform="cluster")
        cost = ServingCost(cfg, socket=cluster.socket, calib=cluster.calib)
        rs = ReplicaSet(cluster, cost, cache_rows=1024, faults=plan)
        workload = ServingWorkload(cfg, seed=1)
        result = rs.serve(batches, workload.batch_indices)
        assert plan.fired and plan.fired[0]["site"] == "serve.replica"
        assert result.dead_replicas == [1]
