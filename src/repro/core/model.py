"""The DLRM model: Bottom MLP + EmbeddingBags + Interaction + Top MLP.

Assembles the operators of this package into the topology of paper
Fig. 1.  The dense features run through the Bottom MLP (ending at the
embedding dimension E); the S sparse features are looked up in their
tables; interaction combines the S+1 vectors; the Top MLP produces one
logit per sample, trained with BCE.

``loss_normalizer`` deserves a note: the loss divides the *sum* of
per-sample losses by an explicit constant (default: the local minibatch).
The hybrid-parallel wrapper sets it to the *global* minibatch on every
rank so that summed (allreduced) gradients equal the single-socket
gradients exactly -- the invariant the distributed tests pin down.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from repro.core.batch import Batch
from repro.core.config import DLRMConfig
from repro.core.embedding import EmbeddingBag, SplitEmbeddingBag
from repro.core.interaction import make_interaction
from repro.core.loss import BCEWithLogitsLoss
from repro.core.mlp import MLP
from repro.core.optim import SGD
from repro.core.param import DenseSlab, Parameter, Prefixed
from repro.core.update import steps_rows_statelessly, uses_fused_dispatch
from repro.kernels.lookup import BadLookup, Lookup, fuse
from repro.kernels.workspace import aligned_empty
from repro.obs.tracer import trace
from repro.util import rng_from


def _table_state(state: Mapping[str, np.ndarray], t: int) -> Prefixed:
    """``state``'s entries for table ``t``, which it must hold."""
    sub = Prefixed(state, f"table.{t}.")
    if not len(sub):
        raise KeyError(f"checkpoint has no state for owned table {t}")
    return sub


class DLRM:
    """Single-process DLRM (the paper's single-socket workload)."""

    def __init__(
        self,
        cfg: DLRMConfig,
        seed: int = 0,
        engine: str = "reference",
        storage: str = "fp32",
        lo_bits: int = 16,
        table_ids: list[int] | None = None,
        slab_alloc: Callable[[tuple[int, ...], np.dtype], np.ndarray] | None = None,
        state: Mapping[str, np.ndarray] | None = None,
    ):
        """Build the model.

        ``table_ids`` restricts which embedding tables this process owns
        (the hybrid-parallel wrapper passes each rank its share); table
        initialisation draws from per-table seeded streams, so any
        partition of tables across processes reproduces the exact same
        weights as a single process holding all of them.
        ``slab_alloc(shape, dtype)`` provides the embedding slab's memory
        (default: line-aligned memory), each table drawn or loaded
        straight into its rows; whoever tiers the tables passes a file
        mapping (:func:`repro.tiering.store.build_tiered`).
        ``state`` (a :meth:`state_dict`-keyed mapping, such as a
        checkpoint's members) gives every tensor instead of its draw, one
        entry at a time: the model as it was saved, with no drawn twin.
        """
        if storage not in ("fp32", "split_bf16"):
            raise ValueError(f"storage must be fp32 or split_bf16, got {storage!r}")
        self.cfg = cfg
        self.seed = seed
        self.storage = storage
        rng = np.random.default_rng(seed)
        self.bottom = MLP(
            cfg.dense_features,
            cfg.bottom_mlp,
            rng=rng,
            last_activation="relu",
            engine=engine,
            name="bottom",
            state=None if state is None else Prefixed(state, "bottom."),
        )
        self.top = MLP(
            cfg.interaction_dim,
            cfg.top_mlp,
            rng=rng,
            last_activation=None,  # logits; sigmoid lives in the loss
            engine=engine,
            name="top",
            state=None if state is None else Prefixed(state, "top."),
        )
        #: Every MLP weight, bias and gradient, laid out in two FP32
        #: flats the optimizers step whole (parameters are views).
        self.dense = DenseSlab(self.parameters())
        self.table_ids = list(range(cfg.num_tables)) if table_ids is None else list(table_ids)
        if any(not 0 <= t < cfg.num_tables for t in self.table_ids):
            raise ValueError("table_ids out of range")
        bag_cls, bag_kw = (
            (SplitEmbeddingBag, {"lo_bits": lo_bits})
            if storage == "split_bf16"
            else (EmbeddingBag, {})
        )
        rows = [cfg.table_rows[t] for t in self.table_ids]
        #: Every owned table's rows back to back in one bag of the
        #: storage class (``None`` for a model that owns no table).  A
        #: step looks all of them up with one ``slab.forward`` and
        #: updates them with one sort, one plan and one fold.
        self.slab = (
            bag_cls(sum(rows), cfg.embedding_dim, alloc=slab_alloc or aligned_empty, **bag_kw)
            if rows
            else None
        )
        self._tables: dict[int, EmbeddingBag] = {}
        start = 0
        for t, r in zip(self.table_ids, rows):  # each table filled in place, in its own rows
            table = self._tables[t] = self.slab.rows_view(start, start + r)
            start += r
            if state is None:
                table.draw(rng_from(seed, "table", t))
            else:
                table.load_state_dict(_table_state(state, t))
        #: The owned tables by id: views of their row range of
        #: :attr:`slab` (same ``state_dict`` keys and arrays as
        #: stand-alone bags), in table order.  Read-only; a view that
        #: keeps its rows in another order comes in through
        #: :meth:`rebind_table`.
        self.tables: Mapping[int, EmbeddingBag] = MappingProxyType(self._tables)
        self._lookup: tuple[Batch, Lookup] | None = None  # see _slab_lookup
        self.interaction = make_interaction(
            cfg.interaction, cfg.num_tables, cfg.embedding_dim
        )
        self.loss_fn = BCEWithLogitsLoss()

    # -- introspection ------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        """All dense (MLP) parameters, bottom first."""
        return self.bottom.parameters() + self.top.parameters()

    def state_dict(self, copy: bool = True) -> dict[str, np.ndarray]:
        """All weights of this process's shard as a flat dict of copies
        (with ``copy=False``, of the live storage: what the checkpoint
        writer takes).

        Keys are ``bottom.layers.<i>.<tensor>``, ``top.layers.<i>.<tensor>``
        and ``table.<t>.<tensor>`` (``weight`` for FP32 tables, the
        ``hi``/``lo`` uint16 halves for Split-BF16 tables -- together the
        exact FP32 master weight, so a checkpoint loses nothing).
        """
        out: dict[str, np.ndarray] = {}
        for prefix, mlp in (("bottom", self.bottom), ("top", self.top)):
            for key, value in mlp.state_dict(copy).items():
                out[f"{prefix}.{key}"] = value
        out.update(self.table_state_dict(copy))
        return out

    def table_state_dict(self, copy: bool = True) -> dict[str, np.ndarray]:
        """The ``table.<t>.<tensor>`` entries of :meth:`state_dict` alone:
        all a model-parallel rank contributes to a consolidated
        checkpoint beside rank 0 (the dense entries are replicated)."""
        return {
            f"table.{t}.{key}": value
            for t, table in self.tables.items()
            for key, value in table.state_dict(copy).items()
        }

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict` bit-exactly.

        Only this process's owned tables are required; entries for
        unowned tables are ignored, so a model-parallel shard can load
        its share straight from a consolidated checkpoint.
        """
        self.bottom.load_state_dict(Prefixed(state, "bottom."))
        self.top.load_state_dict(Prefixed(state, "top."))
        for t in self.table_ids:
            self.tables[t].load_state_dict(_table_state(state, t))

    # -- passes ------------------------------------------------------------------

    def rebind_table(self, table_id: int, view: EmbeddingBag) -> None:
        """Serve table ``table_id`` through ``view`` from now on: a bag
        over the table's own slab rows that keeps them in another order
        (:func:`repro.tiering.store.apply_tiering`).  The table stays in
        the slab; its ``storage_rows`` is asked wherever ids enter the
        slab's id space, so the model holds no copy of the order."""
        old = self._tables[table_id]
        if (view.rows, view.dim) != (old.rows, old.dim):
            raise ValueError(
                f"table {table_id} is {old.rows} x {old.dim}, the view {view.rows} x {view.dim}"
            )
        self._tables[table_id] = view
        self._lookup = None

    def _fuse(self, batch: Batch) -> Lookup:
        """``batch``'s look-ups as one look-up in the slab's id space (table
        ``j``'s bags ``[j * N, (j + 1) * N)``), checked per table: the only
        check they get.  Each table's storage rows, shifted by its first."""
        parts = []
        for t in self.table_ids:
            if np.shape(batch.offsets[t]) != (batch.size + 1,):
                raise BadLookup(f"table {t}", "offsets", None, f"must hold {batch.size + 1} entries")
            bag = self.tables[t]
            parts.append((f"table {t}", batch.indices[t], batch.offsets[t], bag.rows, bag.storage_rows))
        return fuse(parts)

    def _slab_lookup(self, batch: Batch) -> Lookup:
        """:meth:`_fuse`, once per batch: the forward fuses, the update reuses."""
        if self._lookup is None or self._lookup[0] is not batch:
            self._lookup = (batch, self._fuse(batch))
        return self._lookup[1]

    def _embedding_lookup(self, lookup: Lookup) -> dict[int, np.ndarray]:
        """One ``slab.forward`` for every owned table."""
        if not self.table_ids:
            return {}
        pooled = self.slab.forward(lookup)
        n = lookup.bags // len(self.table_ids)
        return {t: pooled[j * n : (j + 1) * n] for j, t in enumerate(self.table_ids)}

    def embedding_forward(self, batch: Batch) -> dict[int, np.ndarray]:
        """Look up only this process's tables (model-parallel half)."""
        return self._embedding_lookup(self._slab_lookup(batch))

    def bottom_forward(self, batch: Batch) -> np.ndarray:
        """Bottom MLP on the (data-parallel) dense features.

        Split out so the hybrid-parallel runtime can overlap the forward
        embedding alltoall with exactly this compute window -- the only
        overlap available to the alltoall (paper Sect. VI-D).
        """
        with trace("mlp.gemm.fwd", rows=batch.dense.shape[0]):
            return self.bottom.forward(batch.dense)

    def top_forward(self, x_bottom: np.ndarray, emb_out: dict[int, np.ndarray]) -> np.ndarray:
        """Interaction + Top MLP, given all S embedding outputs."""
        missing = [t for t in range(self.cfg.num_tables) if t not in emb_out]
        if missing:
            raise ValueError(f"missing embedding outputs for tables {missing}")
        embs = [emb_out[t] for t in range(self.cfg.num_tables)]
        with trace("mlp.gemm.fwd", rows=x_bottom.shape[0]):
            r = self.interaction.forward(x_bottom, embs)
            return self.top.forward(r)

    def dense_forward(self, batch: Batch, emb_out: dict[int, np.ndarray]) -> np.ndarray:
        """Bottom MLP + interaction + Top MLP on (data-parallel) samples."""
        return self.top_forward(self.bottom_forward(batch), emb_out)

    def forward(self, batch: Batch) -> np.ndarray:
        """Full forward pass (single-process: owns all tables)."""
        emb_out = self.embedding_forward(batch)
        return self.dense_forward(batch, emb_out)

    def infer(
        self,
        batch: Batch,
        bottom_outs: list[np.ndarray] | None = None,
        top_outs: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Forward-only pass (inference/eval mode): returns the logits.

        Bit-identical to :meth:`forward` on the same batch, but stores
        *no* state anywhere -- the slab look-up, MLP activations and the
        interaction's saved ``Z`` are all left untouched, so a
        serving path can interleave with a pending training backward.
        The optional ``*_outs`` buffer lists are forwarded to
        :meth:`MLP.infer` (the serving engine's warm path).
        """
        missing = [t for t in range(self.cfg.num_tables) if t not in self.tables]
        if missing:
            raise ValueError(
                f"inference needs all tables locally; missing {missing}"
            )
        emb_out = self._embedding_lookup(self._fuse(batch))  # no state kept
        x_bottom = self.bottom.infer(batch.dense, outs=bottom_outs)
        embs = [emb_out[t] for t in range(self.cfg.num_tables)]
        r = self.interaction.infer(x_bottom, embs)
        return self.top.infer(r, outs=top_outs)

    def loss(self, batch: Batch, normalizer: float | None = None) -> float:
        logits = self.forward(batch)
        return self.loss_fn.forward(logits, batch.labels, normalizer=normalizer)

    def top_backward(self, dlogits: np.ndarray) -> tuple[np.ndarray, np.ndarray | list[np.ndarray]]:
        """Top MLP + interaction backward; returns (d bottom-output,
        per-table embedding-output gradients: the dot interaction's
        ``(S, N, E)`` block, a list for the cat interaction)."""
        with trace("mlp.gemm.bwd", rows=dlogits.shape[0]):
            dr = self.top.backward(dlogits)
            return self.interaction.backward(dr)

    def backward_segment(self, half: str, dy: np.ndarray, start: int, stop: int) -> np.ndarray | None:
        """Backward through layers ``[start, stop)`` of the ``"top"`` or
        ``"bottom"`` MLP only -- the issue-as-ready path walks each stack
        bucket by bucket so a bucket's weight gradients can fly while
        earlier layers compute.  The dense features need no gradient: the
        bottom's first layer returns None."""
        with trace("mlp.gemm.bwd", rows=dy.shape[0]):
            return getattr(self, half).backward_segment(dy, start, stop, half == "top")

    def interaction_backward(
        self, dr: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Interaction backward alone; composes with the top half's
        :meth:`backward_segment` to equal :meth:`top_backward`."""
        return self.interaction.backward(dr)

    def bottom_backward(self, ddense: np.ndarray) -> None:
        """Bottom MLP backward (weight grads accumulate into parameters;
        the dense features need no gradient)."""
        with trace("mlp.gemm.bwd", rows=ddense.shape[0]):
            self.bottom.backward(ddense, input_grad=False)

    def dense_backward(self, dlogits: np.ndarray, batch: Batch) -> list[np.ndarray]:
        """Top MLP + interaction + Bottom MLP backward; returns the
        per-table gradients of the embedding *outputs* (to be routed to
        table owners in the distributed case)."""
        ddense, dembs = self.top_backward(dlogits)
        self.bottom_backward(ddense)
        return dembs

    def sparse_update(
        self, dembs: Mapping[int, np.ndarray] | list[np.ndarray], batch: Batch, opt: SGD, **span
    ) -> None:
        """Alg. 2 + Alg. 3/4 for every owned table, given the bag-level
        gradients ``dembs[t]`` of the embedding outputs (a mapping, a
        list, or the dot interaction's ``(S, N, E)`` block).

        The tables update as **one** look-up in the slab's id space, the
        forward's checked one, whenever the optimizer steps sparse
        gradients the plain-SGD way; an optimizer that overrides
        ``step_sparse`` (per-table state, e.g.
        :class:`~repro.core.optim.SparseAdagrad`) gets each table view
        with its own gradient and ids.  With the ``fused`` and
        ``racefree`` strategies (gate:
        :func:`~repro.core.update.uses_fused_dispatch`) Alg. 2's
        row-per-lookup gradient is never materialised.  Bitwise the
        per-table updates in every case: fused ids of different tables
        never collide.  ``span`` labels the trace spans (the rank, under
        the hybrid-parallel runtime)."""
        if not self.table_ids:
            return
        if steps_rows_statelessly(opt):
            units = [(self.slab, self._slab_grads(dembs), self._slab_lookup(batch), None)]
        else:
            units = [
                (self.tables[t], dembs[t], batch.indices[t], batch.offsets[t])
                for t in self.table_ids
            ]
        fused = uses_fused_dispatch(opt)
        for bag, grad_out, indices, offsets in units:
            if fused:
                with trace("update.sparse", rows=len(indices), **span):
                    opt.strategy.apply_fused(bag, grad_out, indices, offsets, opt.lr)
            else:
                grad = bag.backward(grad_out, indices, offsets)
                with trace("update.sparse", rows=grad.nnz, **span):
                    opt.step_sparse(bag, grad)

    def _slab_grads(self, dembs) -> np.ndarray:
        """The owned tables' bag gradients in table order, as the slab's
        one look-up takes them: the dot interaction's ``(S, N, E)`` block
        itself, reshaped with no copy, when it holds every table in order;
        else a concatenation (a model-parallel shard's subset, the
        exchange's dict, a list)."""
        if isinstance(dembs, np.ndarray) and self.table_ids == list(range(len(dembs))):
            return dembs.reshape(-1, dembs.shape[-1])
        return np.concatenate([dembs[t] for t in self.table_ids])

    def train_step(self, batch: Batch, opt: SGD, normalizer: float | None = None) -> float:
        """One SGD iteration; returns the (normalised) loss."""
        loss = self.loss(batch, normalizer=normalizer)
        dlogits = self.loss_fn.backward()
        dembs = self.dense_backward(dlogits, batch)
        with trace("update.dense"):
            opt.step_dense(self.parameters())
        self.sparse_update(dembs, batch, opt)
        return loss
