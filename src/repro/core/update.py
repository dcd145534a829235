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

All four apply the *same* arithmetic; in this simulator they share the
exact scatter-add of :meth:`EmbeddingBag.scatter_add_rows` and differ in
(a) how they traverse (the race-free strategy really partitions, so tests
can observe its thread ranges) and (b) the cost-model key used to time
them.  ``fused`` additionally folds Alg. 2's backward into the update
(the standalone 1.6x experiment of Sect. III-A); training loops run
``racefree`` through that same bag-level pass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.embedding import EmbeddingBag, SparseGrad
from repro.kernels.threads import bucket_by_row_ranges


class UpdateStrategy(ABC):
    """Applies a :class:`SparseGrad` to a table: ``W[i] -= lr * v``."""

    #: Key understood by :meth:`repro.hw.costmodel.CostModel.embedding_update_time`.
    cost_key: str = ""

    @abstractmethod
    def apply(self, table: EmbeddingBag, grad: SparseGrad, lr: float) -> None:
        """Mutate ``table`` in place."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ReferenceUpdate(UpdateStrategy):
    """The naive single-threaded framework kernel (row-at-a-time)."""

    cost_key = "reference"

    def apply(self, table: EmbeddingBag, grad: SparseGrad, lr: float) -> None:
        # The table checks the ids: a negative one would wrap in np.add.at.
        table.scatter_add_rows(grad.indices, grad.values, scale=-np.float32(lr))


class AtomicXchgUpdate(ReferenceUpdate):
    """FP atomic adds via integer XCHG (Sect. III-A option 1)."""

    cost_key = "atomic"


class RTMUpdate(ReferenceUpdate):
    """Transactional-memory critical sections (Sect. III-A option 2)."""

    cost_key = "rtm"


class FusedBackwardUpdate(UpdateStrategy):
    """Backward+update fused into one pass (standalone 1.6x experiment),
    and the class that holds the one race-free kernel.

    :meth:`apply_fused` is the entry every training loop uses: given the
    *bag-level* output gradient it applies every per-lookup delta by
    reading straight from the small ``(N, E)`` gradient array -- no
    ``np.repeat``-materialised ``dW``, no bag id per look-up, no scaled
    copy: the scatter walks the bags and rounds ``-lr * dY[b]`` itself,
    as ``np.multiply`` would.  Bit-identical to
    ``EmbeddingBag.backward`` followed by :meth:`apply`, the
    :class:`SparseGrad` entry ``SGD.step_sparse`` takes when an optimizer
    or strategy needs the gradient materialised.

    Either way the arithmetic is Alg. 4's: the row ranges are disjoint,
    so the partitioned update equals one direct scatter-add in input
    order.  The partition is only observed:
    :attr:`last_thread_counts` names each row's thread by the closed
    form ``((i + 1) * threads - 1) // rows`` and counts with a ``bincount``.
    """

    cost_key = "fused"

    def __init__(self, threads: int = 28):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.threads = threads
        #: (indices, table rows) of the last update, for the counts.
        self._last: tuple[np.ndarray, int] | None = None
        self._counts: np.ndarray | None = None

    @property
    def last_thread_counts(self) -> np.ndarray | None:
        """Per-thread update counts of the last update under Alg. 4's
        static row partition (observability), computed when first read:
        no step pays for a figure nobody looks at."""
        if self._counts is None and self._last is not None:
            self._counts = bucket_by_row_ranges(*self._last, self.threads)
        return self._counts

    def _observe(self, indices: np.ndarray, rows: int) -> None:
        self._last, self._counts = (indices, rows), None

    def apply(self, table: EmbeddingBag, grad: SparseGrad, lr: float) -> None:
        table.scatter_add_rows(grad.indices, grad.values, scale=-np.float32(lr))  # checks the ids
        self._observe(grad.indices, table.rows)

    def apply_fused(self, table: EmbeddingBag, grad_out: np.ndarray, indices, offsets, lr: float) -> None:
        """Alg. 2 + Alg. 3/4 in one pass over the lookups of one table:
        look-up ``s`` of bag ``b`` adds ``fl32(-lr * grad_out[b])``.  A
        :class:`~repro.kernels.lookup.Lookup` for ``indices`` is not rescanned."""
        look = table._check_lookup(indices, offsets)
        # Loudly: gradient rows past the last bag would be ignored silently.
        if grad_out.shape[0] != look.bags:
            raise ValueError(f"grad_out has {grad_out.shape[0]} rows for {look.bags} bags")
        self._observe(look.ids, table.rows)
        if len(look):
            grad_out = np.ascontiguousarray(grad_out, dtype=np.float32)
            table.scatter_add_rows(look, grad_out, scale=-np.float32(lr))


class RaceFreeUpdate(FusedBackwardUpdate):
    """Alg. 4: row-range partitioning over ``threads`` workers -- the
    kernel it inherits, priced as the stand-alone update pass the paper
    ships (``fused``: the same arithmetic, the 1.6x experiment's cost
    key).  Alg. 4 as written, ``threads`` full-array mask scans, is
    :func:`repro.kernels.reference.partitioned_scatter_add`."""

    cost_key = "racefree"


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


def make_strategy(name: str, threads: int = 28) -> UpdateStrategy:
    """Instantiate an update strategy by cost key: a look-up in
    :data:`repro.train.registry.UPDATE_STRATEGIES`, the one strategy
    table (imported lazily -- ``repro.train`` sits above this module)."""
    from repro.train.registry import UPDATE_STRATEGIES, create

    return create(UPDATE_STRATEGIES, "update strategy", name, threads=threads)
