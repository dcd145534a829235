"""Request stream synthesis and micro-batch coalescing bounds."""

import numpy as np
import pytest

from repro.serve.batcher import (
    MicroBatch,
    MicroBatcher,
    Request,
    StreamConfig,
    poisson_stream,
)

EPS = 1e-12


def stream(n=200, qps=2000.0, seed=0, **kw):
    return poisson_stream(StreamConfig(requests=n, mean_qps=qps, seed=seed, **kw))


class TestStream:
    def test_deterministic(self):
        a, b = stream(seed=7), stream(seed=7)
        assert a == b

    def test_arrivals_sorted_and_positive(self):
        reqs = stream()
        arr = np.array([r.arrival for r in reqs])
        assert (np.diff(arr) >= 0).all() and arr[0] > 0

    def test_mean_rate_near_nominal(self):
        reqs = stream(n=4000, qps=1000.0)
        span = reqs[-1].arrival
        assert 4000 / span == pytest.approx(1000.0, rel=0.15)

    def test_candidates_within_bounds_and_skewed(self):
        cfgmax = 32
        reqs = stream(n=2000, max_candidates=cfgmax)
        cands = np.array([r.candidates for r in reqs])
        assert cands.min() >= 1 and cands.max() <= cfgmax
        # Zipf head: single-candidate queries dominate the mean.
        assert np.median(cands) < cfgmax / 4

    def test_keys_within_range(self):
        reqs = stream(num_keys=16)
        assert all(0 <= r.key < 16 for r in reqs)

    def test_invalid_request(self):
        with pytest.raises(ValueError):
            Request(rid=0, arrival=0.0, candidates=0)
        with pytest.raises(ValueError):
            Request(rid=0, arrival=-1.0, candidates=1)

    def test_invalid_stream_config(self):
        with pytest.raises(ValueError):
            StreamConfig(requests=0)
        with pytest.raises(ValueError):
            StreamConfig(mean_qps=0.0)


class TestMicroBatch:
    def test_samples_and_delays(self):
        mb = MicroBatch(
            requests=(
                Request(rid=0, arrival=1.0, candidates=3),
                Request(rid=1, arrival=1.5, candidates=2),
            ),
            dispatch_time=2.0,
        )
        assert mb.samples == 5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            MicroBatch(requests=(), dispatch_time=0.0)


class TestCoalescingBounds:
    """The acceptance-criteria invariants of every policy."""

    def check_partition(self, reqs, batches):
        flat = [r for mb in batches for r in mb.requests]
        assert flat == sorted(reqs, key=lambda r: r.arrival)

    @pytest.mark.parametrize("policy", ["static", "dynamic", "adaptive"])
    def test_partition_preserved_and_nonempty(self, policy):
        reqs = stream()
        batches = MicroBatcher(policy=policy, max_batch_samples=64).plan(reqs)
        assert batches and all(mb.requests for mb in batches)
        self.check_partition(reqs, batches)

    @pytest.mark.parametrize("policy", ["dynamic", "adaptive"])
    def test_deadline_bounds_every_request_delay(self, policy):
        budget = 2e-3
        reqs = stream(qps=500.0)
        batches = MicroBatcher(
            policy=policy, max_batch_samples=10_000, latency_budget_s=budget
        ).plan(reqs)
        for mb in batches:
            assert mb.dispatch_time >= max(r.arrival for r in mb.requests)
            for r in mb.requests:
                assert -EPS <= mb.dispatch_time - r.arrival <= budget + EPS

    def test_static_ignores_deadline(self):
        # At a trickle arrival rate the static policy queues far past any
        # reasonable latency target -- the pathology dynamic fixes.
        reqs = stream(n=50, qps=10.0)
        batches = MicroBatcher(policy="static", max_batch_samples=10_000).plan(reqs)
        assert len(batches) == 1
        assert batches[0].dispatch_time - batches[0].requests[0].arrival > 1.0

    def test_size_threshold_closes_batches(self):
        reqs = stream(n=500, qps=1e6)  # effectively simultaneous arrivals
        cap = 64
        batches = MicroBatcher(
            policy="dynamic", max_batch_samples=cap, latency_budget_s=10.0
        ).plan(reqs)
        max_cand = max(r.candidates for r in reqs)
        for mb in batches[:-1]:
            assert cap <= mb.samples < cap + max_cand
        assert batches[-1].samples < cap + max_cand

    def test_static_fills_to_threshold(self):
        reqs = stream(n=300)
        cap = 32
        batches = MicroBatcher(policy="static", max_batch_samples=cap).plan(reqs)
        for mb in batches[:-1]:
            assert mb.samples >= cap

    def test_oversized_request_gets_own_dispatch(self):
        reqs = [Request(rid=0, arrival=0.1, candidates=100)]
        batches = MicroBatcher(policy="dynamic", max_batch_samples=8).plan(reqs)
        assert len(batches) == 1
        assert batches[0].dispatch_time == pytest.approx(0.1)

    def test_adaptive_dispatches_smaller_batches_at_low_load(self):
        reqs = stream(n=200, qps=200.0)
        kw = dict(max_batch_samples=512, latency_budget_s=50e-3)
        ada = MicroBatcher(policy="adaptive", **kw).plan(reqs)
        dyn = MicroBatcher(policy="dynamic", **kw).plan(reqs)
        mean = lambda bs: sum(mb.samples for mb in bs) / len(bs)  # noqa: E731
        assert mean(ada) < mean(dyn)
        # ...which buys lower mean batching delay.
        delay = lambda bs: np.mean(  # noqa: E731
            [mb.dispatch_time - r.arrival for mb in bs for r in mb.requests]
        )
        assert delay(ada) < delay(dyn)

    def test_empty_stream(self):
        assert MicroBatcher().plan([]) == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(policy="greedy")
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_samples=0)
        with pytest.raises(ValueError):
            MicroBatcher(latency_budget_s=0.0)
