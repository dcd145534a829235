"""Serving sweep: micro-batch latency budget vs throughput/p99/hit-rate.

The serving analogue of the paper's scaling figures: the same model and
cost machinery, driven by an inference query stream instead of training
iterations.  Asserts the qualitative shape Hsia et al. / Gupta et al.
report: larger batching windows buy larger batches (throughput per
dispatch) at the price of tail latency, and the Zipf head makes the
embedding cache earn a substantial hit rate at a tiny fraction of the
table capacity.
"""

from repro.serve import ServeParams, sla_frontier, sweep_budgets

BUDGETS_MS = (1.0, 5.0, 20.0)

PARAMS = ServeParams(
    config="mlperf",
    requests=400,
    mean_qps=4000.0,
    policy="dynamic",
    router="least_loaded",
    replicas=4,
    cache_rows=8192,
)


def run_serving_sweep():
    return sweep_budgets(PARAMS, budgets_ms=BUDGETS_MS)


def test_serving_sweep(benchmark, emit):
    rows = benchmark(run_serving_sweep)
    emit(
        "serving_sweep",
        rows,
        columns=[
            "policy", "router", "budget_ms", "batches", "batch_samples",
            "hit_rate", "qps", "p50_ms", "p95_ms", "p99_ms",
        ],
        title="Serving: throughput vs p99 latency (mlperf, 4 replicas)",
    )
    emit(
        "serving_sla_frontier",
        sla_frontier(rows),
        title="Serving: throughput-under-SLA frontier",
    )
    by_budget = {r["budget_ms"]: r for r in rows}
    # A wider batching window coalesces strictly larger batches...
    assert (
        by_budget[1.0]["batch_samples"]
        < by_budget[5.0]["batch_samples"]
        <= by_budget[20.0]["batch_samples"]
    )
    # ...and pays for them in tail latency.
    assert by_budget[1.0]["p99_ms"] < by_budget[20.0]["p99_ms"]
    # The Zipf head keeps the cache useful at ~0.004% of the id space.
    for r in rows:
        assert r["hit_rate"] > 0.2, r
    # Queueing never starves: every request is eventually served.
    for r in rows:
        assert r["requests"] == PARAMS.requests
