"""Forward-only inference engine around :class:`~repro.core.model.DLRM`.

Serving never runs backward, so the engine drives the model through the
no-grad :meth:`DLRM.infer` path and keeps one capacity-sized set of
per-layer output buffers alive across calls.  Micro-batches coalesced
under a latency budget vary in size, so buffers are allocated once at
the largest size seen (or :meth:`warmup`'s capacity) and every batch
scores into contiguous ``buf[:n]`` views: only a capacity *increase* is
a cold (allocating) call, everything at or below capacity runs the warm
no-allocation path.  Results are bit-identical to ``DLRM.forward`` --
the serving stack scores exactly what the training reproduction
validates.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import Batch
from repro.core.mlp import sigmoid
from repro.core.model import DLRM
from repro.kernels.workspace import Workspace
from repro.tiering.planner import plan_from_spec
from repro.tiering.store import build_tiered


class InferenceEngine:
    """Batched no-grad scorer with a warm preallocated-buffer path."""

    def __init__(self, model: DLRM):
        missing = [t for t in range(model.cfg.num_tables) if t not in model.tables]
        if missing:
            raise ValueError(
                f"serving needs a full replica; model is missing tables {missing}"
            )
        self.model = model
        #: Grow-only arena of per-layer output buffers; batches score
        #: into ``buf[:n]`` views of the capacity-sized allocations.
        self._ws = Workspace()
        self._capacity = 0
        #: Calls that grew the workspace (allocated); all others ran warm.
        self.cold_calls = 0

    @classmethod
    def from_checkpoint(cls, source) -> "InferenceEngine":
        """Serve a training checkpoint: the train -> serve loop closed.

        Builds the model from the RunSpec embedded in a ``repro.train``
        ``.npz`` checkpoint (a path or an open ``Archive``), always as a
        full replica whatever parallelism produced it, each tensor taken
        from its checked member: predictions match the training-time
        model to the bit.  The import is deferred: ``repro.train`` sits
        above this package in the layering.
        """
        from repro.train.checkpoint import open_checkpoint

        with open_checkpoint(source) as archive:
            spec = archive.require_spec()
            # Serve out-of-core too: rebuild the (deterministic) plan from
            # the spec *first* and build the model on its file, the same
            # tables tiered as the trainer's.  Each table streams from its
            # member into the file-backed slab and is permuted hot-first
            # there: no flat copy of the tables ever sits in anonymous
            # memory, so a model bigger than RAM loads.  Tiering moves
            # rows, never bits, for *any* plan.
            plan = plan_from_spec(spec) if spec.tiering.enabled else None
            model = build_tiered(
                lambda alloc: spec.build_model(slab_alloc=alloc, state=archive.model_state),
                plan.plans if plan is not None else {},
                cold_dir=spec.tiering.cold_dir,
            )
        return cls(model)

    # -- buffers ------------------------------------------------------------

    def warmup(self, batch_size: int) -> None:
        """Preallocate for batches up to ``batch_size`` ahead of traffic."""
        self._workspace(batch_size)

    def _layer_bufs(self, which: str, mlp, n: int) -> list[np.ndarray]:
        return [
            self._ws.take((which, i), (n, layer.out_features))
            for i, layer in enumerate(mlp.layers)
        ]

    def _workspace(self, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        if n > self._capacity:
            self._capacity = n
            self.cold_calls += 1
        # Take at full capacity (so the arena never thrashes), then hand
        # out leading slices: a leading slice of a C-contiguous buffer is
        # itself contiguous, so the MLP infer path can still write GEMMs
        # straight into it.
        cap = self._capacity
        bottom = self._layer_bufs("bottom", self.model.bottom, cap)
        top = self._layer_bufs("top", self.model.top, cap)
        return [b[:n] for b in bottom], [b[:n] for b in top]

    # -- scoring ------------------------------------------------------------

    def predict_logits(self, batch: Batch) -> np.ndarray:
        """Raw logits, shape (N, 1); bit-identical to ``model.forward``.

        The returned array is a copy -- the engine's internal buffers are
        reused by the next call and must not escape.
        """
        bottom_outs, top_outs = self._workspace(batch.size)
        logits = self.model.infer(batch, bottom_outs=bottom_outs, top_outs=top_outs)
        return logits.copy()

    def predict(self, batch: Batch) -> np.ndarray:
        """Click probabilities, shape (N,) (sigmoid of the logits)."""
        return sigmoid(self.predict_logits(batch)).reshape(-1)
