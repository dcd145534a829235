"""Sparse embedding update strategies (paper Sect. III-A, Algorithms 3-4).

The update pass ``W[I[i]] += alpha * dW[i]`` has a race on duplicate
indices when parallelised over the NS look-ups.  The paper evaluates four
resolutions:

* ``reference`` -- the naive PyTorch v1.4 CPU kernel (functionally fine,
  catastrophically slow: 99% of the unoptimised iteration),
* ``atomic``    -- FP atomic add built from integer ``XCHG`` loops,
* ``rtm``       -- Intel Restricted Transactional Memory sections, which
  admit SIMD FMAs inside the critical section,
* ``racefree``  -- Alg. 4: partition table *rows* over threads; every
  thread scans all indices, updating only rows it owns.  No atomics, no
  races, better locality -- but load imbalance if indices cluster.

All four apply the *same* arithmetic, so here they are one scatter-add
(:meth:`EmbeddingBag.scatter_add_rows`) that differs only in its
cost-model key: an :class:`UpdateStrategy` *is* its key.  ``fused``
additionally folds Alg. 2's backward into the update (the standalone
1.6x experiment of Sect. III-A); :class:`FusedBackwardUpdate` carries
that bag-level pass, and training loops run ``racefree`` through it.
Alg. 4 as written, ``threads`` full-array mask scans, is the tests'
oracle (``tests/conftest.py::racefree_update_oracle``).
"""

from __future__ import annotations

import numpy as np

from repro.core.embedding import EmbeddingBag, SparseGrad


class UpdateStrategy:
    """Applies a :class:`SparseGrad` to a table, ``W[i] -= lr * v``,
    priced under ``cost_key``: a key understood by
    :meth:`repro.hw.costmodel.CostModel.embedding_update_time`."""

    def __init__(self, cost_key: str):
        self.cost_key = cost_key

    def apply(self, table: EmbeddingBag, grad: SparseGrad, lr: float) -> None:
        """Mutate ``table`` in place."""
        # The table checks the ids: a negative one would wrap in np.add.at.
        table.scatter_add_rows(grad.indices, grad.values, scale=-np.float32(lr))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.cost_key!r})"


class FusedBackwardUpdate(UpdateStrategy):
    """Backward+update fused into one pass (standalone 1.6x experiment).

    :meth:`apply_fused` is the entry every training loop uses: given the
    *bag-level* output gradient it applies every per-lookup delta by
    reading straight from the small ``(N, E)`` gradient array -- no
    ``np.repeat``-materialised ``dW``, no bag id per look-up, no scaled
    copy: the scatter walks the bags and rounds ``-lr * dY[b]`` itself,
    as ``np.multiply`` would.  Bit-identical to
    ``EmbeddingBag.backward`` followed by :meth:`apply`, the
    :class:`SparseGrad` entry ``SGD.step_sparse`` takes when an optimizer
    needs the gradient materialised.
    """

    def apply_fused(self, table: EmbeddingBag, grad_out: np.ndarray, indices, offsets, lr: float) -> None:
        """Alg. 2 + Alg. 3/4 in one pass over the lookups of one table:
        look-up ``s`` of bag ``b`` adds ``fl32(-lr * grad_out[b])``.  A
        :class:`~repro.kernels.lookup.Lookup` for ``indices`` is not rescanned."""
        look = table._check_lookup(indices, offsets)
        # Loudly: gradient rows past the last bag would be ignored silently.
        if grad_out.shape[0] != look.bags:
            raise ValueError(f"grad_out has {grad_out.shape[0]} rows for {look.bags} bags")
        if len(look):
            grad_out = np.ascontiguousarray(grad_out, dtype=np.float32)
            table.scatter_add_rows(look, grad_out, scale=-np.float32(lr))


def uses_fused_dispatch(opt) -> bool:
    """True when training loops may feed bag-level gradients straight to
    :meth:`FusedBackwardUpdate.apply_fused` instead of materialising
    Alg. 2's row-per-lookup gradient.

    The single gate shared by ``DLRM.train_step`` and the distributed
    runtime (they must dispatch identically or distributed ==
    single-socket bit-exactness breaks): the optimizer's strategy has
    the bag-level entry (``fused`` and ``racefree``; ``reference``, the
    oracle, and ``atomic``/``rtm`` stay materialising) *and* its sparse
    step is the plain SGD scatter (a subclass overriding ``step_sparse``
    needs the materialised :class:`SparseGrad`).
    """
    return isinstance(
        getattr(opt, "strategy", None), FusedBackwardUpdate
    ) and steps_rows_statelessly(opt)


def steps_rows_statelessly(opt) -> bool:
    """True when ``opt``'s sparse step is the plain SGD scatter: no
    per-table state, so a model may hand it all the tables of its slab
    as one gradient in the slab's id space.  An optimizer overriding
    ``step_sparse`` keeps receiving each table with its own gradient."""
    from repro.core.optim import SGD  # lazy: optim imports this module

    return type(opt).step_sparse is SGD.step_sparse


def make_strategy(name: str) -> UpdateStrategy:
    """Instantiate an update strategy by cost key: a look-up in
    :data:`repro.train.registry.UPDATE_STRATEGIES`, the one strategy
    table (imported lazily -- ``repro.train`` sits above this module)."""
    from repro.train.registry import UPDATE_STRATEGIES, create

    return create(UPDATE_STRATEGIES, "update strategy", name)
