"""Router policies and replica-set serving on the simulated cluster."""

import numpy as np
import pytest

from repro.parallel.cluster import SimCluster
from repro.serve.batcher import MicroBatch, Request
from repro.serve.replica import ReplicaSet, Router
from repro.serve.sla import ServingCost
from tests.conftest import tiny_config


def mb(rid, arrival, candidates=4, key=0):
    return MicroBatch(
        requests=(Request(rid=rid, arrival=arrival, candidates=candidates, key=key),),
        dispatch_time=arrival,
    )


def make_set(n_ranks=4, router="least_loaded", cache_rows=64, cache_policy="lru"):
    cluster = SimCluster(n_ranks, platform="cluster")
    cost = ServingCost(tiny_config(), socket=cluster.socket, calib=cluster.calib)
    return ReplicaSet(
        cluster, cost, cache_rows=cache_rows, cache_policy=cache_policy, router=router
    )


def indices_for(batch: MicroBatch):
    """Deterministic per-key index synthesis over the tiny config."""
    cfg = tiny_config()
    out = []
    for t in range(cfg.num_tables):
        rows = []
        for r in batch.requests:
            rng = np.random.default_rng((r.rid, t))
            base = (r.key * 7) % cfg.table_rows[t]
            rows.append((base + rng.integers(0, 5, size=r.candidates)) % cfg.table_rows[t])
        out.append(np.concatenate(rows))
    return out


class TestRouter:
    def test_round_robin_cycles(self):
        router = Router("round_robin", 3)
        picks = [router.pick(mb(i, 0.0), [0.0, 0.0, 0.0]) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_picks_earliest_free(self):
        router = Router("least_loaded", 3)
        assert router.pick(mb(0, 0.0), [5.0, 1.0, 3.0]) == 1

    def test_cache_affinity_is_deterministic_in_key(self):
        router = Router("cache_affinity", 4)
        for key in range(10):
            a = router.pick(mb(0, 0.0, key=key), [0.0] * 4)
            b = router.pick(mb(1, 9.9, key=key), [1.0, 0.0, 0.0, 0.0])
            assert a == b == key % 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Router("random", 2)
        with pytest.raises(ValueError):
            Router("round_robin", 0)
        with pytest.raises(ValueError):
            Router("round_robin", 2).pick(mb(0, 0.0), [0.0, 0.0, 0.0])


class TestReplicaSet:
    def test_serves_every_request_once(self):
        rs = make_set()
        batches = [mb(i, 0.001 * i, key=i % 8) for i in range(20)]
        result = rs.serve(batches, indices_for)
        assert result.latencies.shape == (20,)
        assert (result.latencies > 0).all()
        assert result.batches == 20
        assert sum(r.batches for r in result.replicas) == 20

    def test_latency_includes_queueing(self):
        """On one replica, simultaneous batches must serialise."""
        rs = make_set(n_ranks=1)
        batches = [mb(i, 0.0) for i in range(5)]
        result = rs.serve(batches, indices_for)
        lat = np.sort(result.latencies)
        assert (np.diff(lat) > 0).all()  # each waits for the previous
        assert result.makespan_s == pytest.approx(lat[-1])

    def test_least_loaded_spreads_simultaneous_load(self):
        rs = make_set(n_ranks=4, router="least_loaded")
        batches = [mb(i, 0.0) for i in range(8)]
        result = rs.serve(batches, indices_for)
        assert [r.batches for r in result.replicas] == [2, 2, 2, 2]

    def test_least_loaded_beats_round_robin_under_skew(self):
        # Identical dispatch times but wildly different service costs per
        # batch (candidate counts): least-loaded smooths completion.
        def batches():
            return [mb(i, 0.0, candidates=(32 if i % 4 == 0 else 1)) for i in range(16)]

        ll = make_set(n_ranks=4, router="least_loaded").serve(batches(), indices_for)
        rr = make_set(n_ranks=4, router="round_robin").serve(batches(), indices_for)
        assert ll.makespan_s <= rr.makespan_s + 1e-12

    def test_cache_affinity_raises_hit_rate_on_keyed_traffic(self):
        """Acceptance criterion: affinity routing warms per-user rows."""
        def batches():
            # 8 users in random arrival order; affinity pins each to one
            # rank, round-robin sprays each user over all four caches.
            keys = np.random.default_rng(0).integers(0, 8, size=64)
            return [mb(i, 0.0005 * i, key=int(keys[i])) for i in range(64)]

        aff = make_set(router="cache_affinity", cache_rows=32).serve(
            batches(), indices_for
        )
        rr = make_set(router="round_robin", cache_rows=32).serve(
            batches(), indices_for
        )
        assert aff.hit_rate > rr.hit_rate

    def test_profilers_account_service_and_queue(self):
        rs = make_set(n_ranks=1)
        result = rs.serve([mb(0, 0.0), mb(1, 0.0)], indices_for)
        # Both arrive at t=0 on one replica: the first completes after its
        # own service, the second queues behind it.
        first_done, second_done = result.latencies
        busy = result.replicas[0].busy_s
        second_service = busy - first_done
        assert 0 < first_done < busy
        # The second batch starts exactly when the first completes.
        assert second_done - second_service == pytest.approx(first_done)

    def test_router_size_mismatch_rejected(self):
        cluster = SimCluster(2, platform="cluster")
        cost = ServingCost(tiny_config(), socket=cluster.socket)
        with pytest.raises(ValueError):
            ReplicaSet(cluster, cost, cache_rows=8, router=Router("round_robin", 3))
