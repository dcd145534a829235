"""End-to-end serving simulation: workload synthesis and sweeps."""

import numpy as np
import pytest

from repro.core.config import get_config
from repro.serve.batcher import MicroBatch, Request
from repro.serve.driver import ServeParams, ServingWorkload, run_serving, sweep_budgets
from repro.serve.sla import sla_frontier

from tests.conftest import pooled

FAST = ServeParams(config="mlperf", requests=120, mean_qps=4000.0, replicas=2)


class TestServingWorkload:
    def test_indices_deterministic_and_in_range(self):
        cfg = get_config("mlperf")
        wl = ServingWorkload(cfg, seed=1)
        req = Request(rid=3, arrival=0.1, candidates=5, key=2)
        a = wl.request_indices(req)
        b = ServingWorkload(cfg, seed=1).request_indices(req)
        assert len(a) == cfg.num_tables
        for t, (x, y) in enumerate(zip(a, b)):
            assert x.shape == (5 * wl.lookups_per_candidate,)
            assert x.min() >= 0 and x.max() < cfg.table_rows[t]
            np.testing.assert_array_equal(x, y)

    def test_same_key_shares_rows_across_requests(self):
        """The correlation cache affinity exploits: one user's queries
        keep drawing from one hot set; different users mostly don't."""
        cfg = get_config("mlperf")
        wl = ServingWorkload(cfg, seed=0)
        t = 19  # a large table (585935 rows): collisions mean reuse
        same = [
            wl.request_indices(Request(rid=i, arrival=0.0, candidates=32, key=7))[t]
            for i in range(4)
        ]
        other = wl.request_indices(
            Request(rid=99, arrival=0.0, candidates=32, key=8)
        )[t]
        pool = set(same[0].tolist())
        overlap_same = np.mean([np.isin(s, list(pool)).mean() for s in same[1:]])
        overlap_other = np.isin(other, list(pool)).mean()
        assert overlap_same > overlap_other

    def test_batch_indices_concatenate_requests(self):
        cfg = get_config("mlperf")
        wl = ServingWorkload(cfg, seed=0)
        r1 = Request(rid=0, arrival=0.0, candidates=2, key=0)
        r2 = Request(rid=1, arrival=0.0, candidates=3, key=1)
        got = wl.batch_indices(MicroBatch(requests=(r1, r2), dispatch_time=0.0))
        for t in range(cfg.num_tables):
            want = np.concatenate(
                [wl.request_indices(r1)[t], wl.request_indices(r2)[t]]
            )
            np.testing.assert_array_equal(got[t], want)


class TestRunServing:
    def test_end_to_end_row(self):
        result, row = run_serving(FAST)
        assert result.latencies.shape == (FAST.requests,)
        assert row["requests"] == FAST.requests
        assert row["qps"] > 0
        assert 0.0 <= row["hit_rate"] <= 1.0
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]

    def test_deterministic(self):
        _, a = run_serving(FAST)
        _, b = run_serving(FAST)
        assert a == b

    def test_width_2_serves_the_width_1_rows(self):
        """The pool width moves no bit of the sweep row."""
        params = ServeParams(config="small", requests=40, mean_qps=500.0, replicas=2)
        _, narrow = run_serving(params)
        with pooled(2):
            _, wide = run_serving(params)
        assert wide == narrow

    @pytest.mark.parametrize("policy", ["static", "dynamic", "adaptive"])
    @pytest.mark.parametrize("router", ["round_robin", "least_loaded", "cache_affinity"])
    def test_every_policy_router_combination_runs(self, policy, router):
        from dataclasses import replace

        params = replace(FAST, requests=40, policy=policy, router=router)
        _, row = run_serving(params)
        assert row["requests"] == 40

    def test_sweep_and_frontier(self):
        rows = sweep_budgets(FAST, budgets_ms=(1.0, 10.0))
        assert [r["budget_ms"] for r in rows] == [1.0, 10.0]
        # Wider window -> larger batches, fewer dispatches.
        assert rows[0]["batches"] > rows[1]["batches"]
        assert rows[0]["batch_samples"] < rows[1]["batch_samples"]
        frontier = sla_frontier(rows, [1e9])
        assert frontier[0]["best_qps"] == max(float(r["qps"]) for r in rows)
