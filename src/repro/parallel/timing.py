"""Analytic iteration model: the paper-scale timing twin of
:class:`repro.parallel.hybrid.DistributedDLRM`.

The functional hybrid model runs real numerics, which is fine for tests
and examples but impossible at paper scale (the MLPerf config alone holds
~96 GB of tables).  This module charges the same phases through the same
cost-model calls using only shapes and sampled index statistics.  The
two are twins, not replicas: the functional step always buckets its
allreduce and charges no loader, while :func:`model_iteration` defaults
to the classic two-allreduce schedule (``bucket_mb=None``) and charges
the global-minibatch loader for the MLPerf config.  Its index statistics
are sampled independently.  ``tests/parallel/test_consistency.py`` pins
them on a scaled-down config: the same phase categories, compute and
framework charges within 5 %, embedding totals within 30 % and the
iteration time within 20 %.

Every figure of Sect. VI-D (Figs. 9-15) is generated by sweeping
:func:`model_iteration` over rank counts, exchange strategies, backends
and blocking modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.comm.ddp import DistributedDataParallelReducer, GradientBucketer
from repro.comm.strategies import make_exchange
from repro.parallel.placement import make_placement, validate_placement
from repro.core.config import DLRMConfig, get_config
from repro.data.synthetic import bounded_zipf
from repro.hw.cache import IndexStats, index_stats
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.parallel.cluster import Profiler, SimCluster
from repro.parallel.hybrid import mlp_backward_time, mlp_forward_time
from repro.util import rng_from

DISTRIBUTIONS = ("uniform", "zipf")


@lru_cache(maxsize=4096)
def _cached_stats(
    rows: int, lookups: int, distribution: str, threads: int, seed: int
) -> IndexStats:
    """Sample one table's index stream and summarise it (cached: the
    large config has 64 identical tables; sampling once suffices)."""
    rng = rng_from(seed, "stats", rows, lookups, distribution)
    if distribution == "uniform":
        idx = rng.integers(0, rows, size=lookups, dtype=np.int64)
    elif distribution == "zipf":
        idx = bounded_zipf(rng, lookups, rows)
    else:
        raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
    return index_stats(idx, rows, threads=threads)


def synthetic_table_stats(
    cfg: DLRMConfig,
    global_n: int,
    distribution: str,
    threads: int,
    seed: int = 0,
) -> list[IndexStats]:
    """Per-table index statistics for one global minibatch."""
    ns = global_n * cfg.lookups_per_table
    return [
        _cached_stats(rows, ns, distribution, threads, seed) for rows in cfg.table_rows
    ]


@dataclass
class IterationResult:
    """One modelled iteration: per-rank profiles and headline numbers."""

    config: str
    n_ranks: int
    backend: str
    exchange: str
    blocking: bool
    iteration_time: float
    profilers: list[Profiler]

    def merged(self) -> Profiler:
        """Rank-averaged profile (what the paper's per-iteration bars show)."""
        avg = Profiler()
        for p in self.profilers:
            avg.merge(p)
        scaled = Profiler()
        for c, t in avg.as_dict().items():
            scaled.add(c, t / len(self.profilers))
        return scaled

    @property
    def compute_time(self) -> float:
        return self.merged().compute_time()

    @property
    def comm_time(self) -> float:
        return self.merged().comm_time()

    def comm_breakdown(self) -> dict[str, float]:
        return self.merged().comm_breakdown()


def model_iteration(
    config: str | DLRMConfig,
    n_ranks: int,
    platform: str = "cluster",
    backend: str = "ccl",
    blocking: bool = False,
    exchange: str = "alltoall",
    update: str = "racefree",
    gemm_impl: str = "this_work",
    loader_mode: str | None = None,
    distribution: str | None = None,
    global_n: int | None = None,
    calib: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    placement: str | list[int] = "round_robin",
    bucket_mb: float | None = None,
) -> IterationResult:
    """Model one training iteration and return its time profile.

    Defaults follow the paper: the MLPerf config reads the terabyte
    dataset (zipf indices, global-minibatch loader), small/large use the
    random dataset (uniform indices, no loader cost).  ``placement``
    selects the table-to-rank assignment ("round_robin" is the paper's;
    "balanced" is the LPT extension of :mod:`repro.parallel.placement`).
    ``bucket_mb`` opts into the bucketed issue-as-ready allreduce
    schedule: each MLP half's gradients split into size-capped buckets
    (reverse layer order, like the functional trainer) and each bucket
    is issued as soon as its backward segment completes; ``None`` keeps
    the classic two-allreduce schedule.
    """
    cfg = get_config(config) if isinstance(config, str) else config
    if n_ranks > cfg.max_ranks:
        raise ValueError(
            f"{cfg.name}: at most {cfg.max_ranks} ranks (one table per rank minimum)"
        )
    if distribution is None:
        distribution = "zipf" if cfg.name.startswith("mlperf") else "uniform"
    if loader_mode is None:
        loader_mode = "global" if cfg.name.startswith("mlperf") else "none"
    gn = global_n if global_n is not None else cfg.global_minibatch
    if gn < n_ranks:
        raise ValueError(f"global minibatch {gn} smaller than {n_ranks} ranks")
    # The paper runs e.g. GN=16384 on 26 sockets: shards are uneven; the
    # analytic model charges the largest shard (the critical path).
    ln = -(-gn // n_ranks)

    cluster = SimCluster(
        n_ranks, platform=platform, backend=backend, calib=calib, blocking=blocking
    )
    cm = cluster.cost
    cores = cluster.compute_cores
    if isinstance(placement, str):
        owners = make_placement(placement, cfg, n_ranks)
    else:
        owners = list(placement)
        validate_placement(cfg, owners, n_ranks)
    tables_of = [
        [t for t, o in enumerate(owners) if o == r] for r in range(n_ranks)
    ]
    stats = synthetic_table_stats(cfg, gn, distribution, cores, seed)
    row_bytes = cfg.embedding_dim * 4
    strategy = make_exchange(exchange)
    reducer = DistributedDataParallelReducer(cluster)
    table_bytes = float(gn * row_bytes)
    top_bytes = sum(fi * fo + fo for fi, fo in cfg.top_layer_shapes()) * 4
    bottom_bytes = sum(fi * fo + fo for fi, fo in cfg.bottom_layer_shapes()) * 4

    start = cluster.snapshot()
    cluster.charge_all(cm.calib.iteration_overhead_s, "compute.framework")

    # 1. Loader.
    if loader_mode != "none":
        per_rank = gn if loader_mode == "global" else ln
        cluster.charge_all(cm.loader_time(per_rank), "data.loader")

    # 2. Embedding forward on owned tables over the global batch.
    for r in cluster.ranks:
        lookups = sum(stats[t].total for t in tables_of[r])
        t = cm.embedding_forward_time(
            lookups, len(tables_of[r]) * gn, row_bytes,
            num_tables=len(tables_of[r]), cores=cores,
        )
        cluster.charge(r, t, "compute.embedding.fwd")

    # 3-5. Forward exchange overlapped with the Bottom MLP forward.
    ex_fwd = (
        strategy.issue_timed(cluster, owners, table_bytes) if n_ranks > 1 else None
    )
    for r in cluster.ranks:
        cluster.charge(
            r,
            mlp_forward_time(cm, cfg.bottom_layer_shapes(), ln, gemm_impl, cores),
            "compute.mlp.bottom.fwd",
        )
    for r in cluster.ranks:
        if ex_fwd is not None:
            ex_fwd.wait(r)
        cluster.charge(
            r,
            cm.interaction_time(ln, cfg.num_vectors, cfg.embedding_dim, cores),
            "compute.interaction.fwd",
        )
        cluster.charge(
            r,
            mlp_forward_time(cm, cfg.top_layer_shapes(), ln, gemm_impl, cores),
            "compute.mlp.top.fwd",
        )
        cluster.charge(r, cm.elementwise_time(ln * 16, cores), "compute.loss")

    bucketed = bucket_mb is not None and n_ranks > 1
    if bucketed:
        # 6-10 (issue-as-ready): per-bucket backward segments in reverse
        # layer order, each bucket's pack charged and its transfer issued
        # the moment the segment completes -- the analytic twin of the
        # functional bucketed schedule in ``hybrid.train_step``.
        cap_bytes = bucket_mb * float(1 << 20)
        top_buckets = GradientBucketer(cfg.top_layer_shapes(), cap_bytes)
        bottom_buckets = GradientBucketer(cfg.bottom_layer_shapes(), cap_bytes)
        shapes_top = cfg.top_layer_shapes()
        shapes_bottom = cfg.bottom_layer_shapes()
        grad_handles: list = []
        for k in range(len(top_buckets)):
            seg_lo, seg_hi = top_buckets.buckets[k]
            nb = top_buckets.nbytes(k)
            for r in cluster.ranks:
                cluster.charge(
                    r,
                    mlp_backward_time(cm, shapes_top[seg_lo:seg_hi], ln, gemm_impl, cores),
                    "compute.mlp.top.bwd",
                )
                reducer.charge_framework_copy(r, nb)
            grad_handles.append((reducer.issue_transfer(nb, blocking=blocking), nb))
        for r in cluster.ranks:
            cluster.charge(
                r,
                cm.interaction_time(ln, cfg.num_vectors, cfg.embedding_dim, cores),
                "compute.interaction.bwd",
            )
        ex_bwd = strategy.issue_timed(cluster, owners, table_bytes)
        for k in range(len(bottom_buckets)):
            seg_lo, seg_hi = bottom_buckets.buckets[k]
            nb = bottom_buckets.nbytes(k)
            for r in cluster.ranks:
                cluster.charge(
                    r,
                    mlp_backward_time(
                        cm, shapes_bottom[seg_lo:seg_hi], ln, gemm_impl, cores
                    ),
                    "compute.mlp.bottom.bwd",
                )
                reducer.charge_framework_copy(r, nb)
            grad_handles.append((reducer.issue_transfer(nb, blocking=blocking), nb))
        ar_top = ar_bottom = None
    else:
        # 6. Top MLP + interaction backward.
        for r in cluster.ranks:
            cluster.charge(
                r,
                mlp_backward_time(cm, cfg.top_layer_shapes(), ln, gemm_impl, cores),
                "compute.mlp.top.bwd",
            )
            cluster.charge(
                r,
                cm.interaction_time(ln, cfg.num_vectors, cfg.embedding_dim, cores),
                "compute.interaction.bwd",
            )

        # 7-10. Issue allreduce(top); backward exchange; bottom bwd; allreduce(bottom).
        ar_top = reducer.issue_timed(top_bytes) if n_ranks > 1 else None
        ex_bwd = (
            strategy.issue_timed(cluster, owners, table_bytes) if n_ranks > 1 else None
        )
        for r in cluster.ranks:
            cluster.charge(
                r,
                mlp_backward_time(cm, cfg.bottom_layer_shapes(), ln, gemm_impl, cores),
                "compute.mlp.bottom.bwd",
            )
        ar_bottom = reducer.issue_timed(bottom_bytes) if n_ranks > 1 else None
        grad_handles = []

    # 11. Wait the backward exchange; embedding backward + sparse update.
    for r in cluster.ranks:
        if ex_bwd is not None:
            ex_bwd.wait(r)
        for t in tables_of[r]:
            cluster.charge(
                r,
                cm.embedding_backward_time(stats[t].total, gn, row_bytes, 1, cores),
                "compute.embedding.bwd",
            )
            cluster.charge(
                r,
                cm.embedding_update_time(update, stats[t], row_bytes, cores),
                "update.sparse",
            )

    # 12. Wait allreduces (per-bucket unpack when bucketed); dense update.
    dense_bytes = 3 * (top_bytes + bottom_bytes)
    for r in cluster.ranks:
        if ar_top is not None:
            ar_top.wait(r)
        if ar_bottom is not None:
            ar_bottom.wait(r)
        for handle, nb in grad_handles:
            handle.wait(r)
            reducer.charge_framework_copy(r, nb)
        cluster.charge(r, cm.elementwise_time(dense_bytes, cores), "update.dense")

    return IterationResult(
        config=cfg.name,
        n_ranks=n_ranks,
        backend=cluster.backend.name,
        exchange=exchange,
        blocking=blocking,
        iteration_time=cluster.elapsed_since(start),
        profilers=list(cluster.profilers),
    )


def single_socket_iteration(
    config: str | DLRMConfig,
    update: str = "racefree",
    gemm_impl: str = "this_work",
    calib: Calibration = DEFAULT_CALIBRATION,
    minibatch: int | None = None,
    seed: int = 0,
) -> IterationResult:
    """One-socket iteration (paper Fig. 7/8): no communication at all.

    ``update='reference'`` with ``gemm_impl='pytorch_mkl'`` is the
    unoptimised PyTorch v1.4 baseline.
    """
    cfg = get_config(config) if isinstance(config, str) else config
    n = minibatch if minibatch is not None else cfg.minibatch
    return model_iteration(
        cfg,
        n_ranks=1,
        platform="node",
        backend="local",
        update=update,
        gemm_impl=gemm_impl,
        global_n=n,
        calib=calib,
        seed=seed,
    )
