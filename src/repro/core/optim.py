"""Optimizers: plain SGD, Split-SGD-BF16, and master-weight mixed precision.

DLRM trains with vanilla SGD; the paper's Sect. VII contribution is how
to run that SGD in BF16 without a separate FP32 master copy:

* :class:`SGD` -- FP32 baseline.  Dense parameters step in place; sparse
  embedding gradients go through a Sect. III-A update strategy.
* :class:`SplitSGD` -- Split-SGD-BF16.  Every dense parameter is split
  into (hi, lo) uint16 halves; the model's compute tensor holds the BF16
  ``hi`` widened to FP32, the optimizer keeps ``lo`` and performs a fully
  FP32-accurate update on the recombined value.  ``lo_bits=8`` reproduces
  the paper's FP24 (1-8-15) ablation, which Fig. 16 shows is *not*
  accurate enough.
* :class:`MasterWeightSGD` -- the classic mixed-precision scheme the
  paper argues against: a full FP32 master copy (3x weight storage), with
  BF16 weights re-quantised every step.  Kept as the capacity baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.bf16 import quantize_bf16
from repro.core.embedding import EmbeddingBag, SparseGrad
from repro.core.param import DenseSlab, Parameter, checked_entry
from repro.core.update import FusedBackwardUpdate, UpdateStrategy
from repro.kernels.dispatch import sgd_step, split_sgd_step
from repro.kernels.rows import descend, split_fp32_into


#: Elements per pass of a NumPy dense step, and the length of the
#: scratch an optimizer owns: a block's weights, gradients, state and
#: ``lr * grad`` (the only temporary of the NumPy SGD kernels) all stay
#: in L2 across the step's ufunc calls, so each byte of the model
#: crosses the memory bus once per step however many calls the update
#: takes.  The native kernels make one pass and take a span whole.
STEP_BLOCK = 1 << 16


class SGD:
    """Vanilla SGD: ``w -= lr * grad`` (dense) + strategy scatter (sparse).

    ``momentum > 0`` adds classic heavy-ball velocity on the *dense*
    parameters only (``v = mu*v + g; w -= lr*v``); embedding tables keep
    the paper's plain sparse SGD, whose update strategies assume a
    stateless scatter.

    The dense step is one pass for every optimizer of this module
    (:meth:`_step`): each maximal run of consecutive pending slots of a
    :class:`~repro.core.param.DenseSlab` is one span of its flats --
    a whole model is one run, one tensor a one-slot run -- walked block
    by block through the class's element-wise :meth:`_update`.  Dense
    *state* (velocity, Split-SGD lo halves, Adagrad accumulators, master
    weights) is one more flat per slab in the same slot layout, created
    by :meth:`register` and saved under ``<state_key>.<i>``.
    """

    name = "sgd-fp32"
    #: Checkpoint key and dtype of the per-element dense state; ``None``
    #: keeps none (momentum turns it on for plain SGD).
    state_key: str | None = None
    state_dtype: type = np.float32

    def __init__(
        self,
        lr: float,
        strategy: UpdateStrategy | None = None,
        momentum: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        if self.momentum:
            self.state_key = "velocity"
        self.strategy = strategy or FusedBackwardUpdate("racefree")
        #: slab -> (its state flat, the slots registered with this
        #: optimizer).  Keyed by the slab object, not its ``id``: the
        #: dict keeps the key alive, so a recycled address can never
        #: hand a new model a dead one's state.
        self._flats: dict[DenseSlab, tuple[np.ndarray, set[int]]] = {}
        self._scratch = np.empty(STEP_BLOCK, dtype=np.float32)

    # -- dense state --------------------------------------------------------

    def register(self, params: list[Parameter]) -> None:
        """(Re)initialise the dense state of ``params`` from their
        current values (a no-op for a stateless optimizer); parameters
        outside any slab are adopted into one."""
        if self.state_key is None:
            return
        loose = [p for p in params if p.slab is None]
        if loose:
            DenseSlab(loose)
        for p in params:
            if p.slab not in self._flats:
                self._flats[p.slab] = (p.slab.zeros(self.state_dtype), set())
            flat, slots = self._flats[p.slab]
            slots.add(p.slot)
            self._init_state(p.value, p.slab.view(flat, p.slot))

    def _init_state(self, value: np.ndarray, state: np.ndarray) -> None:
        state[...] = 0

    def _state_flat(self, params: list[Parameter]) -> np.ndarray:
        """The state flat of the slab holding ``params``, all registered."""
        flat, slots = self._flats.get(params[0].slab, (None, ()))
        for p in params:
            if p.slot not in slots:
                raise RuntimeError(
                    f"parameter {p.name or id(p)} not registered with {type(self).__name__}"
                )
        return flat

    def state_view(self, p: Parameter) -> np.ndarray:
        """``p``'s slot of the dense state flat: a live view."""
        return p.slab.view(self._state_flat([p]), p.slot)

    # -- the step -----------------------------------------------------------

    def _blocks(self, n: int):
        """Slices covering ``[0, n)``, a scratch length (``STEP_BLOCK``)
        each: what an ``_update`` written as several ufunc calls walks."""
        step = self._scratch.size
        return (slice(at, at + step) for at in range(0, n, step))

    def _update(self, values: np.ndarray, grads: np.ndarray, state: np.ndarray | None) -> None:
        """One span, element-wise and in place (``state``: the velocity)."""
        if state is None:
            sgd_step(values, grads, self.lr, self._scratch)
            return
        for block in self._blocks(values.size):
            velocity = state[block]
            velocity *= np.float32(self.momentum)
            velocity += grads[block]
            descend(values[block], velocity, self.lr, self._scratch)

    def _step(self, params: list[Parameter], reduced: np.ndarray | None) -> None:
        """Step every parameter of ``params`` with a gradient pending,
        one maximal run of consecutive slots at a time.  The padding
        inside a run is stepped along: it is zero in values, gradients
        and state and every ``_update`` keeps it so."""
        stop = 0
        while stop < len(params):
            first = params[stop]
            start, stop = stop, stop + 1
            if first.grad is None:
                continue
            slab = first.slab
            while (
                slab is not None
                and stop < len(params)
                and params[stop].grad is not None
                and params[stop].slab is slab
                and params[stop].slot == params[stop - 1].slot + 1
            ):
                stop += 1
            run = params[start:stop]
            state = None if self.state_key is None else self._state_flat(run)
            if reduced is not None and (slab is None or reduced.shape != slab.values.shape):
                raise RuntimeError("step_dense(reduced=) needs a flat in the layout of the slab")
            if slab is None:  # a stand-alone tensor: its own arrays are the span
                values, grads = first.value.reshape(-1), first.grad.reshape(-1)
            else:
                span = slab.span(run)
                values = slab.values[span]
                grads = (slab.grads if reduced is None else reduced)[span]
                state = None if state is None else state[span]
            self._update(values, grads, state)
            for p in run:
                p.zero_grad()

    def step_dense(self, params: list[Parameter], reduced: np.ndarray | None = None) -> None:
        """Step ``params`` by their pending gradients -- or by
        ``reduced``, a flat in their slab's layout that is only read
        (the hybrid runtime's allreduce sum); a parameter with no
        gradient pending is skipped either way."""
        self._step(params, reduced)

    def step_sparse(self, table: EmbeddingBag, grad: SparseGrad) -> None:
        self.strategy.apply(table, grad, self.lr)

    # -- checkpointing ------------------------------------------------------

    def state_dict(
        self,
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
        copy: bool = True,
    ) -> dict[str, np.ndarray]:
        """Optimizer state as flat arrays, keyed by parameter *position*.

        ``params`` must be the same ordered list the optimizer was
        registered with (``model.parameters()`` is stable); ``tables``
        maps table id -> table for optimizers with per-table state.
        ``copy=False`` hands the live state instead of copies.
        """
        state: dict[str, np.ndarray] = {"lr": np.float64(self.lr)}
        if self.momentum:
            state["momentum"] = np.float64(self.momentum)
        if self.state_key is not None:
            for i, p in enumerate(params):
                view = self.state_view(p)
                state[f"{self.state_key}.{i}"] = view.copy() if copy else view
        return state

    def load_state_dict(
        self,
        state: dict[str, np.ndarray],
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
    ) -> None:
        """Restore state saved by :meth:`state_dict`, bit-exactly."""
        self.lr = float(state["lr"])
        if self.momentum:
            if "momentum" not in state:
                raise KeyError("momentum optimizer loading a momentum-free state")
            self.momentum = float(state["momentum"])
        if self.state_key is not None:
            for i, p in enumerate(params):
                self.state_view(p)[...] = checked_entry(
                    state, f"{self.state_key}.{i}", p.shape, self.state_dtype
                )


class SplitSGD(SGD):
    """Split-SGD-BF16 (paper Sect. VII).

    Call :meth:`register` once after model construction; from then on the
    parameters' ``value`` tensors always hold BF16 numbers (the hi half
    widened), while this optimizer owns the lo halves as its dense state
    (``uint16``).  A block is rejoined into the FP32 master, stepped at
    full accuracy and split again, so the step costs what the FP32 step
    costs -- the paper's point.  Sparse tables must be
    :class:`~repro.core.embedding.SplitEmbeddingBag`, which carry their
    own hi/lo storage.
    """

    state_key = "lo"
    state_dtype = np.uint16

    def __init__(self, lr: float, strategy: UpdateStrategy | None = None, lo_bits: int = 16):
        super().__init__(lr, strategy)
        if not 0 <= lo_bits <= 16:
            raise ValueError(f"lo_bits must be in [0, 16], got {lo_bits}")
        self.lo_bits = lo_bits
        self.name = "split-sgd-bf16" if lo_bits == 16 else f"split-sgd-fp{16 + lo_bits}"

    def _init_state(self, value: np.ndarray, lo: np.ndarray) -> None:
        split_fp32_into(value, lo, self.lo_bits)

    def _update(self, values: np.ndarray, grads: np.ndarray, lo: np.ndarray) -> None:
        split_sgd_step(values, lo, grads, self.lr, self.lo_bits, self._scratch)

    # SGD's, defined again so the benchmark suite's layer table
    # (benchmarks/suite/layers.py) can wrap this class's own method.
    def step_dense(self, params: list[Parameter], reduced: np.ndarray | None = None) -> None:
        self._step(params, reduced)


class SparseAdagrad(SGD):
    """Adagrad with row-wise state for the embedding tables.

    DLRM's reference implementation offers Adagrad as the alternative to
    SGD for the sparse features; it is included here as the natural
    extension beyond the paper's vanilla-SGD evaluation.  Dense
    parameters keep per-element accumulators; embedding tables keep one
    accumulator *per row* (the standard row-wise sparse Adagrad), so the
    optimizer state for a table is M floats, not M*E.

    Only FP32 tables are supported: combining Adagrad state with the
    Split-BF16 storage is future work (the paper's Split-SGD argument
    applies to any optimizer whose update is computed in FP32, but the
    state layout needs its own design).
    """

    name = "sparse-adagrad"
    state_key = "dense"

    def __init__(self, lr: float, strategy: UpdateStrategy | None = None, eps: float = 1e-8):
        super().__init__(lr, strategy)
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = eps
        self._row_state: dict[EmbeddingBag, np.ndarray] = {}

    def _update(self, values: np.ndarray, grads: np.ndarray, acc: np.ndarray) -> None:
        for block in self._blocks(values.size):
            v, g, a = values[block], grads[block], acc[block]
            a += g * g
            v -= self.lr * g / (np.sqrt(a) + self.eps)

    def step_sparse(self, table: EmbeddingBag, grad: SparseGrad) -> None:
        if table.storage != "fp32":
            raise ValueError(
                "SparseAdagrad supports FP32 tables only (see class docstring)"
            )
        acc = self._row_state.get(table)
        if acc is None:
            acc = np.zeros(table.rows, dtype=np.float32)
            self._row_state[table] = acc
        # A negative id would wrap silently through the row accumulator.
        table._check_indices(grad.indices)
        uniq, agg = grad.aggregated()
        # Row-wise accumulator: mean squared gradient over the row.
        acc[uniq] += np.mean(agg * agg, axis=1)
        scale = self.lr / (np.sqrt(acc[uniq]) + self.eps)
        table.scatter_add_rows(uniq, -scale[:, None] * agg)

    def state_dict(
        self,
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
        copy: bool = True,
    ) -> dict[str, np.ndarray]:
        state = super().state_dict(params, tables, copy)
        for tid, table in (tables or {}).items():
            acc = self._row_state.get(table)
            if acc is None:
                acc = np.zeros(table.rows, dtype=np.float32)
            state[f"row.{tid}"] = acc.copy() if copy else acc
        return state

    def load_state_dict(
        self,
        state: dict[str, np.ndarray],
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
    ) -> None:
        super().load_state_dict(state, params, tables)
        for tid, table in (tables or {}).items():
            self._row_state[table] = checked_entry(
                state, f"row.{tid}", (table.rows,), np.float32
            ).copy()


class MasterWeightSGD(SGD):
    """Classic BF16 mixed precision with an FP32 master copy.

    Storage: 4 B master + 4 B (BF16-in-FP32 compute tensor) per element
    here; on real silicon 4 B + 2 B = 3x the BF16 model size, which for
    DLRM's hundreds-of-GB tables is "hundreds of Gigabytes more capacity"
    -- the overhead Split-SGD removes.
    """

    name = "master-weight-bf16"
    state_key = "master"

    def __init__(self, lr: float, strategy: UpdateStrategy | None = None):
        super().__init__(lr, strategy)

    def _init_state(self, value: np.ndarray, master: np.ndarray) -> None:
        master[...] = value
        value[...] = quantize_bf16(value)

    def _update(self, values: np.ndarray, grads: np.ndarray, master: np.ndarray) -> None:
        for block in self._blocks(values.size):
            descend(master[block], grads[block], self.lr, self._scratch)
            values[block] = quantize_bf16(master[block])
