"""Hybrid-parallel DLRM: model-parallel embeddings + data-parallel MLPs.

This is the paper's Sect. IV parallelisation, run for real on the
simulated cluster: embedding tables are distributed round-robin over
ranks (each owning whole tables, looked up for the *global* minibatch);
the Bottom/Top MLPs are replicated and work on minibatch shards, with
their weight gradients allreduced.

The iteration follows the paper's issue-as-ready overlap schedule
(Sect. IV-C, Fig. 2): gradients are *bucketed* in fixed reverse-layer
order (:class:`repro.comm.ddp.GradientBucketer`, capped at
``bucket_mb``) and each bucket's allreduce is issued the moment its
layers' backward-by-weights completes:

1.  (loader) -- optionally the flawed global-minibatch loader,
2.  embedding forward on owned tables (full batch),
3.  **issue** the forward exchange (alltoall / scatters),
4.  Bottom MLP forward -- the only compute the forward alltoall can hide
    behind,
5.  **wait** exchange; interaction + Top MLP forward + loss,
6.  Top MLP backward, bucket by bucket from the last layer down;
    **issue** each top bucket's allreduce as soon as its segment's
    weight gradients exist -- the first buckets fly while the rest of
    the top stack, the interaction and the whole Bottom MLP still
    compute,
7.  interaction backward,
8.  **issue** backward exchange (embedding-output gradients to owners),
9.  Bottom MLP backward, bucket by bucket; **issue** each bottom
    bucket's allreduce as ready -- these transfer under the sparse
    update phase,
10. **wait** backward exchange; per-table Alg. 2 backward + sparse update
    (this wait is where the MPI backend's in-order completion makes the
    allreduce cost appear as "Alltoall-Wait", Sect. VI-D),
11. **wait** each gradient bucket at first use (in issue order), then
    the dense SGD step (identical on all ranks).

Each bucket's cross-rank sum folds over the canonical summation tree of
:func:`repro.comm.collectives.tree_sum` -- fixed bucket membership,
fixed tree, independent of issue timing and worker count -- so the
overlapped run is bitwise the sequential one.  A gradient byte moves
once: a bucket is one slice of each rank's gradient flat, the fold reads
the live slices and writes that slice of one shared flat, and every
rank's dense step reads the sum where it lies; the framework's pack and
unpack copies exist on the virtual clock only.

Numerical invariant (tested): with loss normaliser = GN on every rank,
the summed allreduce gradients, the concatenated embedding-output
gradients and the sparse updates all equal the single-process DLRM on the
same global batch up to FP32 summation order -- and the embedding updates
are bit-exact.

Execution is *really* parallel when the process-wide worker pool
(:mod:`repro.exec`) is wider than one thread: every per-rank compute
phase above (embedding forward, MLP forward/backward, sparse + dense
updates) runs concurrently across ranks, synchronizing only where bytes
cross ranks (the exchanges and the bucket folds).  Rank state is disjoint (each rank owns its
model, optimizer, virtual clock and profiler) and every cross-rank
reduction keeps its fixed rank order, so the parallel run is bitwise
the sequential one -- including the virtual-clock timing, which is a
pure function of per-rank charges and collective issue order.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.comm.ddp import BucketSlice, DistributedDataParallelReducer, GradientBucketer
from repro.comm.strategies import make_exchange
from repro.exec.pool import WorkerPool, get_pool
from repro.parallel.placement import make_placement, validate_placement
from repro.core.batch import Batch
from repro.core.config import DLRMConfig
from repro.core.mlp import sigmoid
from repro.core.model import DLRM
from repro.core.optim import SGD
from repro.hw.cache import index_stats
from repro.hw.costmodel import CostModel, GemmShape
from repro.obs.tracer import trace
from repro.parallel.cluster import SimCluster
from repro.tiering.store import build_tiered

LOADER_MODES = ("none", "global", "sharded")


def mlp_forward_time(
    cm: CostModel, shapes: list[tuple[int, int]], n: int, impl: str, cores: int
) -> float:
    """Modelled forward time of an MLP stack on ``n`` samples."""
    return sum(
        cm.gemm_time(GemmShape(m=n, n=fo, k=fi), impl=impl, pass_="fwd", cores=cores)
        for fi, fo in shapes
    )


def mlp_backward_time(
    cm: CostModel, shapes: list[tuple[int, int]], n: int, impl: str, cores: int
) -> float:
    """Modelled backward time: backward-by-data + backward-by-weights."""
    total = 0.0
    for fi, fo in shapes:
        total += cm.gemm_time(GemmShape(m=n, n=fi, k=fo), impl=impl, pass_="bwd_d", cores=cores)
        total += cm.gemm_time(GemmShape(m=fo, n=fi, k=n), impl=impl, pass_="bwd_w", cores=cores)
    return total


#: State keys that belong to one table -- ``table.<t>.<tensor>`` in
#: model state, ``row.<t>`` in optimizer state; every other key is
#: rank-replicated.
_PER_TABLE = ("table", "row")


def consolidate_state(
    rank_states: Sequence[Mapping[str, np.ndarray]], owners: Sequence[int]
) -> dict[str, np.ndarray]:
    """The single-process layout from one state mapping per rank: model
    state (:meth:`DLRM.state_dict`) or optimizer state
    (``opt.state_dict(params, tables)``), keys in the order the
    single-process twin emits them.

    Replicated keys -- dense weights, dense optimizer state, ``lr`` --
    are kept in lock-step by the allreduce, so rank 0's copy is
    authoritative; each table's keys come from its owning rank, in table
    order.  The values are the mappings' own (live shared-memory views
    when the mappings are arenas: copy before they change).  The result
    loads into a single-process model, a serving replica, or a cluster
    of any rank count whose placement covers the same tables.
    """

    def table_of(key: str) -> int | None:
        kind, _, rest = key.partition(".")
        return int(rest.partition(".")[0]) if kind in _PER_TABLE else None

    out = {k: v for k, v in rank_states[0].items() if table_of(k) is None}
    for t, owner in enumerate(owners):
        out.update((k, v) for k, v in rank_states[owner].items() if table_of(k) == t)
    return out


class DistributedDLRM:
    """R-rank hybrid-parallel DLRM over a :class:`SimCluster`."""

    def __init__(
        self,
        cfg: DLRMConfig,
        cluster: SimCluster,
        seed: int = 0,
        exchange: str = "alltoall",
        engine: str = "reference",
        storage: str = "fp32",
        lo_bits: int = 16,
        loader_mode: str = "none",
        placement: str | list[int] = "round_robin",
        pool: WorkerPool | None = None,
        bucket_mb: float = 4.0,
        tiering: dict[int, object] | None = None,
        tiering_cold_dir: str | None = None,
    ):
        r = cluster.n_ranks
        if cfg.num_tables < r:
            raise ValueError(
                f"pure model parallelism needs >= 1 table per rank: "
                f"{cfg.num_tables} tables < {r} ranks"
            )
        if loader_mode not in LOADER_MODES:
            raise ValueError(f"loader_mode must be one of {LOADER_MODES}")
        self.cfg = cfg
        self.cluster = cluster
        if isinstance(placement, str):
            self.owners = make_placement(placement, cfg, r)
        else:
            self.owners = list(placement)
            validate_placement(cfg, self.owners, r)
        self.models = []
        plans = tiering or {}
        for rank in range(r):
            owned = [t for t, o in enumerate(self.owners) if o == rank]
            # Per-rank tiered storage: each rank tiers only the tables it
            # owns, in a slab built on the rank's own file.  Tiering moves
            # rows, never bits, so the tiered cluster matches the flat
            # one bitwise for any plan.
            self.models.append(
                build_tiered(
                    lambda alloc: DLRM(
                        cfg,
                        seed=seed,
                        engine=engine,
                        storage=storage,
                        lo_bits=lo_bits,
                        table_ids=owned,
                        slab_alloc=alloc,
                    ),
                    {t: plans[t] for t in owned if t in plans},
                    cold_dir=tiering_cold_dir,
                )
            )
        self.exchange = make_exchange(exchange)
        self.reducer = DistributedDataParallelReducer(cluster)
        if bucket_mb <= 0:
            raise ValueError(f"bucket_mb must be positive, got {bucket_mb}")
        self.bucket_mb = float(bucket_mb)
        cap_bytes = self.bucket_mb * float(1 << 20)
        #: Fixed reverse-layer-order gradient buckets per MLP half -- a
        #: pure function of the config and the cap, identical on every
        #: rank/worker/backend (the bit-identity contract).
        self.top_buckets = GradientBucketer(cfg.top_layer_shapes(), cap_bytes)
        self.bottom_buckets = GradientBucketer(cfg.bottom_layer_shapes(), cap_bytes)
        #: ``_ends[half][r][k]``: rank ``r``'s end of bucket ``k`` -- a
        #: slice of its gradient flat, the same span on every rank.
        self._ends: dict[str, list[list[BucketSlice]]] = {
            "top": [self.top_buckets.slices(m.top.parameters()) for m in self.models],
            "bottom": [self.bottom_buckets.slices(m.bottom.parameters()) for m in self.models],
        }
        #: The allreduce sum in the ranks' dense-slab layout: a bucket's
        #: fold writes its span, dense steps read the unwritable view.
        self._reduced = self.models[0].dense.zeros(np.float32)
        self._reduced_view = self._reduced.view()
        self._reduced_view.flags.writeable = False
        self._prices: dict[int, tuple] = {}
        self.loader_mode = loader_mode
        self.optimizers: list[SGD] | None = None
        #: Worker pool for per-rank phase execution (None = the
        #: process-wide pool, resolved at call time).
        self.pool = pool
        #: Build plan for process-rank workers (everything but the
        #: cluster, which carries its own reconstruction parameters, and
        #: the optimizer factory captured by :meth:`attach_optimizers`).
        self.init_kwargs: dict[str, object] = dict(
            cfg=cfg,
            seed=seed,
            exchange=exchange,
            engine=engine,
            storage=storage,
            lo_bits=lo_bits,
            loader_mode=loader_mode,
            placement=list(self.owners),
            bucket_mb=self.bucket_mb,
            tiering=tiering,
            tiering_cold_dir=tiering_cold_dir,
        )
        self.optimizer_factory: Callable[[], SGD] | None = None

    def attach_optimizers(self, factory: Callable[[], SGD]) -> None:
        """One optimizer per rank (dense state must be rank-local)."""
        self.optimizer_factory = factory
        self.optimizers = []
        for model in self.models:
            opt = factory()
            opt.register(model.parameters())
            self.optimizers.append(opt)

    # -- helpers --------------------------------------------------------------

    @property
    def row_bytes(self) -> int:
        return self.cfg.embedding_dim * 4

    def _charge_loader(self, global_n: int) -> None:
        if self.loader_mode == "none":
            return
        per_rank = global_n if self.loader_mode == "global" else global_n // self.cluster.n_ranks
        for r in self.cluster.ranks:
            self.cluster.charge(r, self.cluster.cost.loader_time(per_rank), "data.loader")

    def _resolve_pool(self) -> WorkerPool:
        return self.pool if self.pool is not None else get_pool()

    def _map_ranks(self, fn: Callable[[int], object]) -> list:
        """Run ``fn(rank)`` for every rank; concurrently when the pool is
        wide, in rank order otherwise.  Results come back in rank order
        either way.  Rank tasks may only touch rank-local state (model,
        optimizer, clock, profiler) plus per-rank collective waits."""
        return self._resolve_pool().map(fn, list(self.cluster.ranks))

    def _step_prices(self, ln: int) -> tuple:
        """A step's charges that are pure functions of (config, local
        batch ``ln``, cluster), computed once: MLP forward by half, MLP
        backward by half and bucket, interaction, loss, dense update."""
        if ln not in self._prices:
            # Priced as the analytic twin prices this work's GEMMs.
            cfg, cm, impl = self.cfg, self.cluster.cost, "this_work"
            cores = self.cluster.compute_cores
            shapes = {"top": cfg.top_layer_shapes(), "bottom": cfg.bottom_layer_shapes()}
            buckets = {"top": self.top_buckets.buckets, "bottom": self.bottom_buckets.buckets}
            dense_bytes = sum(p.nbytes for p in self.models[0].parameters()) * 3
            self._prices[ln] = (
                {h: mlp_forward_time(cm, s, ln, impl, cores) for h, s in shapes.items()},
                {
                    h: [mlp_backward_time(cm, s[a:b], ln, impl, cores) for a, b in buckets[h]]
                    for h, s in shapes.items()
                },
                cm.interaction_time(ln, cfg.num_vectors, cfg.embedding_dim, cores),
                cm.elementwise_time(ln * 16, cores),
                cm.elementwise_time(dense_bytes, cores),
            )
        return self._prices[ln]

    # -- the iteration ------------------------------------------------------------

    def train_step(self, global_batch: Batch) -> float:
        """One hybrid-parallel SGD iteration; returns the global loss."""
        if self.optimizers is None:
            raise RuntimeError("call attach_optimizers() before train_step()")
        cluster = self.cluster
        cm = cluster.cost
        cores = cluster.compute_cores
        r_count = cluster.n_ranks
        gn = global_batch.size
        if gn % r_count:
            raise ValueError(f"global minibatch {gn} not divisible by {r_count} ranks")
        cfg = self.cfg
        shards = global_batch.shard(r_count)
        cluster.charge_all(cm.calib.iteration_overhead_s, "compute.framework")
        self._charge_loader(gn)

        # 2. Embedding forward: owned tables, full global batch.  Every
        # per-rank phase below runs through _map_ranks: concurrent on a
        # wide pool, plain rank order otherwise -- same bits either way.
        def _embedding_fwd(r: int) -> dict[int, np.ndarray]:
            model = self.models[r]
            with trace("phase.embedding.fwd", rank=r):
                out = model.embedding_forward(global_batch)
            # Tier-aware gather pricing: tiered tables (repro.tiering)
            # read most rows from the cache-resident hot prefix, so their
            # random-read term is charged at the measured per-batch hit
            # rate; flat tables keep the DRAM-random price.  Bag writes
            # and per-table overhead are storage-independent and stay in
            # the embedding_forward_time call.
            flat_lookups, t = 0, 0.0
            for tid in model.table_ids:
                idx = global_batch.indices[tid]
                frac = getattr(model.tables[tid], "hot_traffic_fraction", None)
                if frac is None:
                    flat_lookups += len(idx)
                else:
                    t += cm.tiered_gather_time(
                        len(idx), self.row_bytes, frac(idx), cores=cores
                    )
            t += cm.embedding_forward_time(
                flat_lookups, len(model.table_ids) * gn, self.row_bytes,
                num_tables=len(model.table_ids), cores=cores,
            )
            cluster.charge(r, t, "compute.embedding.fwd")
            return out

        emb_global: list[dict[int, np.ndarray]] = self._map_ranks(_embedding_fwd)

        # 3-5. Issue exchange; then one fused rank task runs Bottom MLP
        # forward under it, waits, and carries straight through the Top
        # MLP forward and loss -- there is no main-thread work between
        # those phases, so fusing them drops synchronization barriers
        # without moving a single charge or wait in any rank's
        # virtual-time sequence.  The loss gradient is stashed rank-
        # locally: backward runs bucket by bucket below.
        emb_slices, ex_fwd = self.exchange.forward(cluster, emb_global, self.owners)
        t_fwd, t_bwd, t_interaction, t_loss, t_dense = self._step_prices(gn // r_count)
        dy: list[np.ndarray | None] = [None] * r_count

        def _fwd_loss(r: int) -> float:
            model = self.models[r]
            with trace("phase.fwd_loss", rank=r):
                x_bottom = model.bottom_forward(shards[r])
                cluster.charge(r, t_fwd["bottom"], "compute.mlp.bottom.fwd")
                ex_fwd.wait(r)
                logits = model.top_forward(x_bottom, emb_slices[r])
                cluster.charge(r, t_interaction, "compute.interaction.fwd")
                cluster.charge(r, t_fwd["top"], "compute.mlp.top.fwd")
                loss = model.loss_fn.forward(logits, shards[r].labels, normalizer=gn)
                cluster.charge(r, t_loss, "compute.loss")
                dy[r] = model.loss_fn.backward()
            return loss

        # The cross-rank loss sum stays a fixed-rank-order fold here.
        global_loss = float(sum(self._map_ranks(_fwd_loss)))

        # 6/9. One MLP half's backward, bucket by bucket (reverse layer
        # order).  Each bucket's segment backward and cross-rank fold run
        # as one reduce_map (a single transport round under the process
        # backend: canonical-subtree partials, not per-rank flats, cross
        # the mailboxes); its allreduce is issued the moment the fold lands.
        pool = self._resolve_pool()
        ranks = list(cluster.ranks)

        def _backward_half(half: str, bucketer: GradientBucketer) -> list:
            ends, handles = self._ends[half], []
            for k, (start, stop) in enumerate(bucketer.buckets):

                def _segment(r: int, k: int = k, start: int = start, stop: int = stop):
                    with trace(f"phase.{half}.bwd", rank=r, bucket=k):
                        dy[r] = self.models[r].backward_segment(half, dy[r], start, stop)
                        cluster.charge(r, t_bwd[half][k], f"compute.mlp.{half}.bwd")
                        return self.reducer.pack_grads(r, ends[r][k], index=k)

                pool.reduce_map(_segment, ranks, out=self._reduced[ends[0][k].span])
                handles.append((half, k, self.reducer.issue_transfer(bucketer.nbytes(k))))
            return handles

        # The top buckets fly while the remaining top layers, the
        # interaction and the whole bottom MLP still compute.
        top_handles = _backward_half("top", self.top_buckets)

        # 7. Interaction backward.  d(bottom output) stays rank-local;
        # the embedding-output gradients come back through the map so the
        # replicated backward exchange sees every rank's contribution.
        def _interaction_bwd(r: int) -> dict[int, np.ndarray]:
            model = self.models[r]
            with trace("phase.interaction.bwd", rank=r):
                dy[r], de = model.interaction_backward(dy[r])
                cluster.charge(r, t_interaction, "compute.interaction.bwd")
            return {t: de[t] for t in range(cfg.num_tables)}

        dembs: list[dict[int, np.ndarray]] = self._map_ranks(_interaction_bwd)

        # 8. Backward exchange: embedding-output gradients to table owners.
        grads_to_owner, ex_bwd = self.exchange.backward(cluster, dembs, self.owners)

        # 9. The bottom buckets transfer under the sparse-update phase.
        bottom_handles = _backward_half("bottom", self.bottom_buckets)

        # 10-11. One fused rank task: wait the backward exchange, run the
        # Alg. 2 backward + sparse update, then wait each gradient bucket
        # at first use (issue order) and take the dense SGD step (summed
        # grads, identical on every rank because the loss was normalised
        # by GN).  Every bucket was issued above, so no barrier is needed
        # in between.
        def _updates(r: int) -> None:
            model = self.models[r]
            with trace("phase.updates", rank=r):
                ex_bwd.wait(r)
                opt = self.optimizers[r]
                strategy_key = opt.strategy.cost_key
                # The virtual clock prices Alg. 2 + the update table by
                # table, as the paper's kernels run them; the arithmetic
                # below runs once over the rank's slab.
                for t in model.table_ids:
                    lookups = len(global_batch.indices[t])
                    # Tiered tables (repro.tiering) scatter most rows
                    # into the hot prefix: the same hit-rate factor that
                    # discounts the forward gather scales the backward
                    # scatter and the in-place update -- all row-granular
                    # random traffic against the same rows.
                    frac = getattr(model.tables[t], "hot_traffic_fraction", None)
                    tier = (
                        1.0 if frac is None
                        else cm.tiered_traffic_factor(frac(global_batch.indices[t]))
                    )
                    cluster.charge(
                        r,
                        tier * cm.embedding_backward_time(lookups, gn, self.row_bytes, 1, cores),
                        "compute.embedding.bwd",
                    )
                    stats = index_stats(
                        global_batch.indices[t], cfg.table_rows[t], threads=cores
                    )
                    cluster.charge(
                        r,
                        tier * cm.embedding_update_time(strategy_key, stats, self.row_bytes, cores),
                        "update.sparse",
                    )
                # Same dispatch as DLRM.train_step, by construction: the
                # bag-level exchange gradients feed the model's one
                # sparse-update entry point.
                model.sparse_update(grads_to_owner[r], global_batch, opt, rank=r)
                for half, k, handle in top_handles + bottom_handles:
                    handle.wait(r)
                    mine = self._ends[half][r][k]
                    self.reducer.unpack_grads(r, mine, self._reduced_view[mine.span], index=k)
                with trace("update.dense", rank=r):
                    opt.step_dense(model.parameters(), reduced=self._reduced_view)
                cluster.charge(r, t_dense, "update.dense")

        self._map_ranks(_updates)
        return global_loss

    # -- checkpointing --------------------------------------------------------------

    def state_dict(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Consolidated model state, identical in layout to a
        single-process :meth:`DLRM.state_dict` (:func:`consolidate_state`).
        Only what is kept is copied: rank 0's dense entries, every
        rank's own tables (nothing with ``copy=False``)."""
        models = enumerate(self.models)
        return consolidate_state(
            [m.table_state_dict(copy) if r else m.state_dict(copy) for r, m in models], self.owners
        )

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a consolidated checkpoint: dense weights into every
        rank, each table into its owner."""
        for model in self.models:
            model.load_state_dict(state)

    def optimizer_state_dict(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Consolidated optimizer state matching :meth:`state_dict`:
        dense state (momentum velocities, Split-SGD lo halves, Adagrad
        accumulators) from rank 0, per-table rows (Adagrad) from each
        table's owner."""
        if self.optimizers is None:
            raise RuntimeError("call attach_optimizers() before checkpointing")
        return consolidate_state(
            [
                opt.state_dict([] if r else model.parameters(), model.tables, copy)
                for r, (opt, model) in enumerate(zip(self.optimizers, self.models))
            ],
            self.owners,
        )

    def load_optimizer_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore per-rank optimizers from a consolidated state."""
        if self.optimizers is None:
            raise RuntimeError("call attach_optimizers() before checkpointing")
        for r, model in enumerate(self.models):
            self.optimizers[r].load_state_dict(state, model.parameters(), model.tables)

    # -- evaluation helpers ---------------------------------------------------------

    def predict_proba(self, global_batch: Batch) -> np.ndarray:
        """Click probabilities via the distributed forward path."""
        cluster = self.cluster
        r_count = cluster.n_ranks
        shards = global_batch.shard(r_count)
        emb_global = self._map_ranks(
            lambda r: self.models[r].embedding_forward(global_batch)
        )
        emb_slices, handle = self.exchange.forward(cluster, emb_global, self.owners)
        handle.wait_all()

        def _rank_proba(r: int) -> np.ndarray:
            model = self.models[r]
            x = model.bottom_forward(shards[r])
            return sigmoid(model.top_forward(x, emb_slices[r])).reshape(-1)

        return np.concatenate(self._map_ranks(_rank_proba))
