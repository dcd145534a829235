"""Which calls the traced section wraps, and how spans become metrics.

Layers are the repo's packages.  Every entry of :func:`patch_table`
names a public method, the span it records and (optionally) how to read
the call's work count from its own arguments.  :func:`span_metrics`
reduces a finished :class:`~spans.SpanRecorder` to the per-layer
metrics of ``BENCHMARK.json``; a metric whose layer a workload never
enters reads 0.
"""

from __future__ import annotations

from typing import Callable

from repro.obs import Tracer, set_tracer

from common import ms
from spans import CountFn, SpanRecorder

#: Shares of ``--seconds`` a traced run gives its untraced reference
#: sections, its traced sections and its repro.obs.Tracer sections ...
TRACE_SPLIT = (0.35, 0.35, 0.2)
#: ... which alternate in this many rounds, so that a drift of the
#: host's speed lands on all three alike and their ratios survive it.
TRACE_ROUNDS = 3
#: Name of the span the benchmark opens around each operation.
OP_SPAN = "bench.op"
#: Spans that orchestrate an operation and do none of its arithmetic.
#: Their self time is what the operator-level metrics leave unexplained:
#: ``bench.layer_residual_share``.
GLUE_SPANS = (OP_SPAN, "core.step", "parallel.step", "serve.engine.predict")


def _len_arg(i: int) -> CountFn:
    return lambda args, kwargs: len(args[i])


def _param_elems(args: tuple, kwargs: dict) -> int:
    return sum(p.size for p in args[1])


def _exchange_fwd_bytes(args: tuple, kwargs: dict) -> int:
    _, _, emb_out, owners = args[:4]
    return sum(emb_out[owner][t].nbytes for t, owner in enumerate(owners))


def _exchange_bwd_bytes(args: tuple, kwargs: dict) -> int:
    return sum(g.nbytes for per_rank in args[2] for g in per_rank.values())


def patch_table() -> list[tuple[type, str, str, CountFn | None]]:
    """(class, method, span name, count) for every wrapped call.

    Imports live here so the table is built only in a process that is
    about to trace.  ``kernels`` functions are module-level and are
    measured through the ``core`` methods that call them.
    """
    from repro.comm.ddp import DistributedDataParallelReducer as Reducer
    from repro.comm.strategies import ExchangeStrategy
    from repro.core.embedding import EmbeddingBag
    from repro.core.interaction import DotInteraction
    from repro.core.loss import BCEWithLogitsLoss
    from repro.core.mlp import MLP
    from repro.core.model import DLRM
    from repro.core.optim import SGD, SplitSGD
    from repro.core.update import FusedBackwardUpdate
    from repro.data.criteo import SyntheticCriteoDataset
    from repro.data.synthetic import RandomRecDataset
    from repro.exec.pool import WorkerPool
    from repro.exec.prefetch import PrefetchLoader
    from repro.parallel.cluster import SimCluster
    from repro.parallel.hybrid import DistributedDLRM
    from repro.serve.engine import InferenceEngine
    from repro.tiering.store import TieredEmbeddingBag

    return [
        (PrefetchLoader, "batch", "data.wait", None),
        (RandomRecDataset, "batch", "data.batch", None),
        (SyntheticCriteoDataset, "batch", "data.batch", None),
        (DLRM, "train_step", "core.step", None),
        (MLP, "forward", "core.mlp.fwd", None),
        (MLP, "infer", "core.mlp.fwd", None),
        (MLP, "backward", "core.mlp.bwd", None),
        (MLP, "backward_segment", "core.mlp.bwd", None),
        # Split and tiered tables inherit forward/backward unchanged.
        (EmbeddingBag, "forward", "core.embedding.fwd", _len_arg(1)),
        (EmbeddingBag, "backward", "core.embedding.bwd", _len_arg(2)),
        (DotInteraction, "forward", "core.interaction.fwd", None),
        (DotInteraction, "infer", "core.interaction.fwd", None),
        (DotInteraction, "backward", "core.interaction.bwd", None),
        (BCEWithLogitsLoss, "forward", "core.loss", None),
        (BCEWithLogitsLoss, "backward", "core.loss", None),
        (SGD, "step_dense", "core.optim.dense", _param_elems),
        (SplitSGD, "step_dense", "core.optim.dense", _param_elems),
        (SGD, "step_sparse", "core.update.sparse", lambda a, k: a[2].nnz),
        (FusedBackwardUpdate, "apply_fused", "core.update.sparse", _len_arg(3)),
        (TieredEmbeddingBag, "gather", "tiering.gather", _len_arg(1)),
        (DistributedDLRM, "train_step", "parallel.step", None),
        # reduce_map's children are the per-rank segment backward and
        # pack; what is left as self time is the cross-rank tree_sum.
        (WorkerPool, "reduce_map", "comm.allreduce", None),
        (Reducer, "issue_transfer", "comm.allreduce", lambda a, k: int(a[1])),
        (Reducer, "pack_grads", "comm.pack", None),
        (Reducer, "unpack_grads", "comm.pack", None),
        (ExchangeStrategy, "forward", "comm.alltoall", _exchange_fwd_bytes),
        (ExchangeStrategy, "backward", "comm.alltoall", _exchange_bwd_bytes),
        (SimCluster, "issue", "comm.issue", None),
        (InferenceEngine, "predict", "serve.engine.predict", lambda a, k: a[1].size),
    ]


def install(rec: SpanRecorder) -> None:
    for cls, method, name, count in patch_table():
        rec.wrap(cls, method, name, count)


def alternate(
    seconds: float,
    section: Callable[[float, SpanRecorder | None], list[int]],
    rec: SpanRecorder,
) -> tuple[list[int], list[int], list[int]]:
    """Run ``section(seconds, recorder) -> per-op ns`` untraced, traced
    into ``rec`` and under an installed :class:`repro.obs.Tracer`, in
    interleaved rounds.  Returns the three pooled per-op samples."""
    plain: list[int] = []
    traced: list[int] = []
    obs: list[int] = []
    share = [seconds * part / TRACE_ROUNDS for part in TRACE_SPLIT]
    for _ in range(TRACE_ROUNDS):
        plain += section(share[0], None)
        install(rec)
        try:
            traced += section(share[1], rec)
        finally:
            rec.unpatch()
        set_tracer(Tracer())
        try:
            obs += section(share[2], None)
        finally:
            set_tracer(None)
    return plain, traced, obs


def overhead_metrics(plain: list[int], traced: list[int], obs: list[int]) -> dict[str, float]:
    """Median op time under each kind of tracing, over untraced, minus 1."""
    return {
        "bench.trace_overhead_share": ms(traced) / ms(plain) - 1.0,
        "obs.tracer_overhead_share": ms(obs) / ms(plain) - 1.0,
    }


def span_metrics(
    rec: SpanRecorder,
    ops: int,
    layer_shapes: list[tuple[int, int]],
    samples_fwd: int,
    samples_bwd: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced section of ``ops`` operations.

    ``*_ms`` values are per operation.  ``layer_shapes`` are the MLP
    (C, K) pairs; ``samples_fwd``/``samples_bwd`` are the samples the
    section pushed forward / backward through them, so the GFLOP/s
    figure is computed (2NCK forward, 4NCK backward), not counted.
    """
    tot = rec.totals()

    def ns(name: str, key: str = "ns") -> float:
        return float(tot.get(name, {}).get(key, 0))

    def per_op_ms(name: str, key: str = "ns") -> float:
        return ns(name, key) / ops / 1e6

    def per_item(name: str, scale: float = 1.0) -> float:
        count = ns(name, "count")
        return ns(name) / scale / count if count else 0.0

    op_ns = ns(OP_SPAN)
    ck = sum(c * k for c, k in layer_shapes)
    mlp_ns = ns("core.mlp.fwd") + ns("core.mlp.bwd")
    flops = 2.0 * ck * samples_fwd + 4.0 * ck * samples_bwd
    comm_calls = tot.get("comm.issue", {}).get("calls", 0)
    comm_bytes = ns("comm.allreduce", "count") + ns("comm.alltoall", "count")
    return {
        "bench.traced_op_ms": op_ns / ops / 1e6,
        "bench.layer_residual_share": sum(ns(g, "self_ns") for g in GLUE_SPANS) / op_ns,
        "data.batch_ms": per_op_ms("data.batch"),
        "data.wait_ms": per_op_ms("data.wait"),
        "core.step_self_ms": per_op_ms("core.step", "self_ns"),
        "core.mlp.fwd_ms": per_op_ms("core.mlp.fwd"),
        "core.mlp.bwd_ms": per_op_ms("core.mlp.bwd"),
        "core.mlp.gflops": flops / mlp_ns if mlp_ns else 0.0,
        "core.embedding.fwd_ms": per_op_ms("core.embedding.fwd"),
        "core.embedding.fwd_ns_per_row": per_item("core.embedding.fwd"),
        "core.embedding.rows_per_op": ns("core.embedding.fwd", "count") / ops,
        "core.embedding.bwd_ms": per_op_ms("core.embedding.bwd"),
        "core.interaction.fwd_ms": per_op_ms("core.interaction.fwd"),
        "core.interaction.bwd_ms": per_op_ms("core.interaction.bwd"),
        "core.loss.ms": per_op_ms("core.loss"),
        "core.optim.dense_ms": per_op_ms("core.optim.dense"),
        "core.optim.dense_ns_per_param": per_item("core.optim.dense"),
        "core.update.sparse_ms": per_op_ms("core.update.sparse"),
        "core.update.sparse_ns_per_row": per_item("core.update.sparse"),
        "tiering.gather_ms": per_op_ms("tiering.gather"),
        "tiering.gather_ns_per_row": per_item("tiering.gather"),
        "parallel.step_self_ms": per_op_ms("parallel.step", "self_ns"),
        "comm.allreduce_ms": per_op_ms("comm.allreduce", "self_ns"),
        "comm.alltoall_ms": per_op_ms("comm.alltoall", "self_ns"),
        "comm.pack_ms": per_op_ms("comm.pack"),
        "comm.calls_per_op": comm_calls / ops,
        "comm.bytes_per_op": comm_bytes / ops,
        "train.loop_self_ms": per_op_ms(OP_SPAN, "self_ns"),
        "serve.engine.predict_us_per_sample": per_item("serve.engine.predict", 1e3),
    }
