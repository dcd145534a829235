"""repro.serve: batched, cache-aware DLRM inference/serving.

The training reproduction's operators, cost model and simulated cluster,
turned toward the ROADMAP's serving workload: a forward-only engine
(bit-identical to training forward), a latency-budgeted micro-batcher
over a synthetic query stream, an embedding-row fast-tier cache, and
multi-socket replicas with latency/cache-aware routing -- reduced to
p50/p95/p99 + QPS and a throughput-under-SLA frontier.

Contract: inference forward is bit-identical to the training model's
(``InferenceEngine.from_checkpoint`` scores exactly what training
would), and the serving simulation runs on virtual clocks -- latency
distributions, cache hit rates and degradation scenarios replay exactly
for a given seed, on any machine.
"""

from repro.serve.driver import ServeParams, run_serving, sweep_budgets
from repro.serve.engine import InferenceEngine
from repro.serve.sla import sla_frontier

__all__ = [
    "InferenceEngine",
    "ServeParams",
    "run_serving",
    "sla_frontier",
    "sweep_budgets",
]
