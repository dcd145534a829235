"""RankExecutor: what one training step on a set of ranks does.

The paper runs one SPMD program -- the Sect. IV iteration is the same
code on one socket and on 64 -- and :class:`~repro.train.Trainer` is
one loop over one object with this surface.  Only *where the ranks
execute* differs between implementations:

* :class:`LocalExecutor` -- a single :class:`~repro.core.model.DLRM`
  and its optimizer, in this process (``parallel.ranks == 1``);
* :class:`InlineRankExecutor` -- every rank of a
  :class:`~repro.parallel.hybrid.DistributedDLRM` in this process, rank
  phases on the process-wide :class:`~repro.exec.pool.WorkerPool` (the
  thread backend; sequential when the pool is 1-wide);
* :class:`~repro.exec.mp.ProcessRankExecutor` -- rank ranges in worker
  processes over shared memory.  Each worker drives an
  :class:`InlineRankExecutor` over its own replica, so the step exists
  once.

Every implementation owns its :class:`~repro.exec.prefetch.PrefetchLoader`
(batches are pure functions of ``(seed, batch_index)``, so only the
index crosses the interface) and trains bitwise identically: losses,
consolidated state and virtual clocks do not depend on the executor.
Both in-process executors build batch ``index + 1`` during step
``index``: beside the row scatter the first helper thread runs, or after
the update (:func:`~repro.exec.prefetch.beside`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.core.mlp import sigmoid
from repro.exec.pool import get_pool, set_pool_workers
from repro.exec.prefetch import PrefetchLoader, beside

if TYPE_CHECKING:
    from repro.core.batch import Batch
    from repro.core.model import DLRM
    from repro.core.optim import SGD
    from repro.parallel.hybrid import DistributedDLRM

StateDict = dict[str, np.ndarray]


class RankExecutor(Protocol):
    """The backend surface the Trainer loop is written against."""

    #: Source of the held-out eval batch; ``batch_size`` samples per step.
    dataset: Any
    batch_size: int

    def step(self, index: int, lr: float | None) -> float:
        """Train on batch ``index`` and return the loss.  ``lr`` is the
        scheduled rate to set on every optimizer first; None leaves the
        optimizers' own (constructed or restored) rate alone."""

    def predict(self, batch: "Batch") -> np.ndarray:
        """Click probabilities, leaving training state untouched."""

    def state_dicts(self, copy: bool = True) -> tuple[StateDict, StateDict]:
        """``(model_state, opt_state)`` in the single-process layout:
        copies, or (``copy=False``) what the checkpoint writer takes --
        live views, valid until the next step."""

    def load_state(self, model_state: StateDict, opt_state: StateDict | None = None) -> None:
        """Restore what :meth:`state_dicts` returned."""

    def clocks(self) -> list[float]:
        """Every rank's virtual-clock time (empty without a cluster)."""

    def drain_traces(self) -> list[dict[str, Any]]:
        """Spans recorded outside this process since the last drain."""

    def close(self) -> None:
        """Release backend resources.  Idempotent."""


def _states(model: "DLRM", opt: "SGD", copy: bool = True) -> tuple[StateDict, StateDict]:
    """One model's and its optimizer's state, single-process layout."""
    return model.state_dict(copy), opt.state_dict(model.parameters(), model.tables, copy)


def _load(model: "DLRM", opt: "SGD", model_state: StateDict, opt_state: StateDict | None) -> None:
    model.load_state_dict(model_state)
    if opt_state:
        opt.load_state_dict(opt_state, model.parameters(), model.tables)


class _InProcessExecutor:
    """What the two in-process executors share: the batch source, the
    pool width they asked for, and a step that primes the next batch."""

    backend = "thread"

    def __init__(self, dataset, batch_size: int, workers: int | None):
        self.dataset = dataset
        self.batch_size = batch_size
        self._prefetch = PrefetchLoader(dataset, batch_size)
        #: Width of the process-wide pool before ``workers`` replaced it;
        #: :meth:`close` puts it back.
        self._previous_workers: int | None = None
        if workers is not None:
            self._previous_workers = get_pool().workers
            set_pool_workers(workers)

    def _step(self, index: int, train) -> float:
        """``train(batch index)``, building batch ``index + 1`` beside it."""
        batch = self._prefetch.batch(index)
        with beside(self._prefetch.primer(index + 1)):
            return train(batch)

    def drain_traces(self) -> list[dict[str, Any]]:
        return []

    def close(self) -> None:
        if self._previous_workers is not None:
            set_pool_workers(self._previous_workers)
            self._previous_workers = None


class LocalExecutor(_InProcessExecutor):
    """One :class:`DLRM` and its (already ``register()``-ed) optimizer."""

    dist = None

    def __init__(
        self,
        model: "DLRM",
        optimizer: "SGD",
        dataset,
        batch_size: int | None = None,
        workers: int | None = None,
    ):
        super().__init__(dataset, batch_size or model.cfg.minibatch, workers)
        self.model = model
        self.optimizer = optimizer

    def step(self, index: int, lr: float | None) -> float:
        if lr is not None:
            self.optimizer.lr = lr
        return self._step(index, lambda batch: self.model.train_step(batch, self.optimizer))

    def predict(self, batch: "Batch") -> np.ndarray:
        # The no-grad path: bit-identical to the training forward, but safe
        # between ``loss`` and ``backward``.
        return sigmoid(self.model.infer(batch)).reshape(-1)

    def state_dicts(self, copy: bool = True) -> tuple[StateDict, StateDict]:
        return _states(self.model, self.optimizer, copy)

    def load_state(self, model_state: StateDict, opt_state: StateDict | None = None) -> None:
        _load(self.model, self.optimizer, model_state, opt_state)

    def clocks(self) -> list[float]:
        return []


class InlineRankExecutor(_InProcessExecutor):
    """Every rank of a :class:`DistributedDLRM` in this process.

    ``batch_size`` is the *global* minibatch: the distributed model
    shards it and normalises the loss by GN, and its consolidated state
    (dense from rank 0, each table from its owner) has the exact
    single-process layout.  ``workers`` resizes the process-wide pool
    for the executor's lifetime.
    """

    def __init__(
        self,
        dist: "DistributedDLRM",
        dataset,
        batch_size: int | None = None,
        workers: int | None = None,
    ):
        if dist.optimizers is None:
            raise ValueError("attach_optimizers() before building an executor")
        super().__init__(dataset, batch_size or dist.cfg.global_minibatch, workers)
        self.dist = dist
        #: Rank 0's replica: dense weights are kept in lock-step by the
        #: allreduce, so it stands for the model wherever one is wanted.
        self.model = dist.models[0]
        self.optimizer = dist.optimizers[0]

    def step(self, index: int, lr: float | None) -> float:
        if lr is not None:
            for opt in self.dist.optimizers:
                opt.lr = lr
        return self._step(index, self.dist.train_step)

    def predict(self, batch: "Batch") -> np.ndarray:
        return self.dist.predict_proba(batch)

    def state_dicts(self, copy: bool = True) -> tuple[StateDict, StateDict]:
        return self.dist.state_dict(copy), self.dist.optimizer_state_dict(copy)

    def load_state(self, model_state: StateDict, opt_state: StateDict | None = None) -> None:
        self.dist.load_state_dict(model_state)
        if opt_state:
            self.dist.load_optimizer_state_dict(opt_state)

    def clocks(self) -> list[float]:
        return self.dist.cluster.snapshot()

    # -- one rank's share (what a process worker mirrors through its arenas) --

    def rank_state_dicts(self, rank: int) -> tuple[StateDict, StateDict]:
        return _states(self.dist.models[rank], self.dist.optimizers[rank])

    def load_rank_state(
        self, rank: int, model_state: StateDict, opt_state: StateDict | None = None
    ) -> None:
        _load(self.dist.models[rank], self.dist.optimizers[rank], model_state, opt_state)
