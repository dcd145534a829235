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

from dataclasses import dataclass

import numpy as np

from repro.core.bf16 import quantize_bf16, split_fp32_into
from repro.core.embedding import EmbeddingBag, SparseGrad
from repro.core.param import DenseSlab, Parameter
from repro.core.update import RaceFreeUpdate, UpdateStrategy


def _checked(
    state: dict[str, np.ndarray],
    key: str,
    shape: tuple[int, ...],
    dtype: type,
) -> np.ndarray:
    """A verified, owned copy of ``state[key]`` (checkpoint loading)."""
    if key not in state:
        raise KeyError(f"missing optimizer state entry {key!r}")
    value = np.asarray(state[key])
    if value.dtype != np.dtype(dtype):
        raise ValueError(f"{key}: dtype {value.dtype} != expected {np.dtype(dtype)}")
    if value.shape != tuple(shape):
        raise ValueError(f"{key}: shape {value.shape} != expected {tuple(shape)}")
    return value.copy()


def _whole_slab(params: list[Parameter]) -> DenseSlab | None:
    """The slab whose flats one call can step for all of ``params``."""
    slab = params[0].slab if params else None
    return slab if slab is not None and slab.steps_whole(params) else None


def _flat_grads(slab: DenseSlab | None, reduced: np.ndarray | None) -> np.ndarray:
    """What a whole-slab step reads: the caller's ``reduced`` or the slab's."""
    if reduced is None:
        return slab.grads
    if slab is None or reduced.shape != slab.values.shape:
        raise RuntimeError("step_dense(reduced=) needs one whole slab pending and its layout")
    return reduced


def steps_from_flat(opt) -> bool:
    """True when ``opt``'s dense step is the whole-slab kernel, which can
    read its gradients from any flat in the slab's layout
    (``step_dense(params, reduced=...)``): momentum-free :class:`SGD`
    and :class:`SplitSGD`.  The others walk the parameters' own."""
    return not opt.momentum and type(opt).step_dense in (SGD.step_dense, SplitSGD.step_dense)


#: Elements per pass of a dense step: a block's weights, gradients, lo
#: halves and ``lr * grad`` (the only temporary) all stay in L2 across
#: the step's ufunc calls, so each byte of the model crosses the memory
#: bus once per step however many calls the update takes.
STEP_BLOCK = 1 << 16


def _step_in_place(
    value: np.ndarray,
    grad: np.ndarray,
    lr: float,
    scratch: np.ndarray,
    lo: np.ndarray | None = None,
    lo_bits: int = 16,
) -> None:
    """``value -= lr * grad`` in place, on a slab's flats or one tensor.

    With ``lo`` this is the Split-SGD step: ``value`` holds BF16 numbers
    (hi halves widened), ``lo`` the other 16 bits; each block is rejoined
    into the FP32 master, stepped at full accuracy and split again.
    All three arrays are C-contiguous (parameter storage always is).
    """
    value, grad = value.reshape(-1), grad.reshape(-1)
    bits = value.view(np.uint32)
    lo = None if lo is None else lo.reshape(-1)
    lr32 = np.float32(lr)
    for start in range(0, value.size, STEP_BLOCK):
        block = slice(start, start + STEP_BLOCK)
        v = value[block]
        if lo is not None:
            np.bitwise_or(bits[block], lo[block], out=bits[block])
        np.subtract(v, np.multiply(grad[block], lr32, out=scratch[: v.size]), out=v)
        if lo is not None:
            split_fp32_into(v, lo[block], lo_bits)


class SGD:
    """Vanilla SGD: ``w -= lr * grad`` (dense) + strategy scatter (sparse).

    ``momentum > 0`` adds classic heavy-ball velocity on the *dense*
    parameters only (``v = mu*v + g; w -= lr*v``); embedding tables keep
    the paper's plain sparse SGD, whose update strategies assume a
    stateless scatter.

    Per-parameter state is keyed by the parameter (or table) object, not
    its ``id``: the dict keeps the key alive, so a recycled address can
    never hand a new parameter a dead one's state.
    """

    name = "sgd-fp32"

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
        self.strategy = strategy or RaceFreeUpdate()
        self._velocity: dict[Parameter, np.ndarray] = {}
        self._scratch = np.empty(STEP_BLOCK, dtype=np.float32)

    def register(self, params: list[Parameter]) -> None:
        """Allocate velocity buffers (a no-op without momentum)."""
        if self.momentum:
            for p in params:
                self._velocity[p] = np.zeros(p.shape, dtype=np.float32)

    def step_dense(self, params: list[Parameter], reduced: np.ndarray | None = None) -> None:
        """Step ``params`` by their pending gradients -- or, for a whole
        slab (:func:`steps_from_flat`), by ``reduced``: a flat of the
        slab's layout, only read (the hybrid runtime's allreduce sum)."""
        slab = None if self.momentum else _whole_slab(params)
        if slab is not None or reduced is not None:
            grads = _flat_grads(slab, reduced)
            _step_in_place(slab.values, grads, self.lr, self._scratch)
            for p in params:
                p.zero_grad()
            return
        for p in params:
            if p.grad is None:
                continue
            if self.momentum:
                v = self._velocity.get(p)
                if v is None:
                    v = np.zeros(p.shape, dtype=np.float32)
                    self._velocity[p] = v
                v *= np.float32(self.momentum)
                v += p.grad
                p.value -= self.lr * v
            else:
                _step_in_place(p.value, p.grad, self.lr, self._scratch)
            p.zero_grad()

    def step_sparse(self, table: EmbeddingBag, grad: SparseGrad) -> None:
        self.strategy.apply(table, grad, self.lr)

    # -- checkpointing ------------------------------------------------------

    def state_dict(
        self,
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
    ) -> dict[str, np.ndarray]:
        """Optimizer state as flat arrays, keyed by parameter *position*.

        ``params`` must be the same ordered list the optimizer was
        registered with (``model.parameters()`` is stable); ``tables``
        maps table id -> table for optimizers with per-table state.
        """
        state: dict[str, np.ndarray] = {"lr": np.float64(self.lr)}
        if self.momentum:
            state["momentum"] = np.float64(self.momentum)
            for i, p in enumerate(params):
                v = self._velocity.get(p)
                state[f"velocity.{i}"] = (
                    np.zeros(p.shape, dtype=np.float32) if v is None else v.copy()
                )
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
            for i, p in enumerate(params):
                self._velocity[p] = _checked(
                    state, f"velocity.{i}", p.shape, np.float32
                )


@dataclass
class _SlabLo:
    """Split-SGD state of one slab: the lo halves in the slab's slot
    layout, and each *registered* parameter's view of them."""

    flat: np.ndarray
    views: list[np.ndarray | None]

    @property
    def complete(self) -> bool:
        return all(v is not None for v in self.views)


class SplitSGD(SGD):
    """Split-SGD-BF16 (paper Sect. VII).

    Call :meth:`register` once after model construction; from then on the
    parameters' ``value`` tensors always hold BF16 numbers (the hi half
    widened), while this optimizer owns the lo halves: one ``uint16``
    flat per :class:`~repro.core.param.DenseSlab`, addressed by slot
    (parameters outside any slab are adopted into one).  A step over a
    whole slab is one in-place pass over its flats, at the cost of the
    FP32 step -- the paper's point.  Sparse tables must be
    :class:`~repro.core.embedding.SplitEmbeddingBag`, which carry their
    own hi/lo storage.
    """

    def __init__(self, lr: float, strategy: UpdateStrategy | None = None, lo_bits: int = 16):
        super().__init__(lr, strategy)
        if not 0 <= lo_bits <= 16:
            raise ValueError(f"lo_bits must be in [0, 16], got {lo_bits}")
        self.lo_bits = lo_bits
        self.name = "split-sgd-bf16" if lo_bits == 16 else f"split-sgd-fp{16 + lo_bits}"
        self._lo: dict[DenseSlab, _SlabLo] = {}

    def register(self, params: list[Parameter]) -> None:
        loose = [p for p in params if p.slab is None]
        if loose:
            DenseSlab(loose)
        for p in params:
            state = self._lo.get(p.slab)
            if state is None:
                state = _SlabLo(p.slab.zeros(np.uint16), [None] * len(p.slab))
                self._lo[p.slab] = state
            lo = state.views[p.slot] = p.slab.view(state.flat, p.slot)
            split_fp32_into(p.value, lo, self.lo_bits)

    def _lo_of(self, p: Parameter) -> np.ndarray:
        state = self._lo.get(p.slab)
        lo = None if state is None else state.views[p.slot]
        if lo is None:
            raise RuntimeError(
                f"parameter {p.name or id(p)} not registered with SplitSGD"
            )
        return lo

    def step_dense(self, params: list[Parameter], reduced: np.ndarray | None = None) -> None:
        slab = _whole_slab(params)
        state = self._lo.get(slab)
        if state is None or not state.complete:
            slab = None
        if slab is not None or reduced is not None:
            grads = _flat_grads(slab, reduced)
            _step_in_place(slab.values, grads, self.lr, self._scratch, state.flat, self.lo_bits)
            for p in params:
                p.zero_grad()
            return
        for p in params:
            if p.grad is None:
                continue
            _step_in_place(
                p.value, p.grad, self.lr, self._scratch, self._lo_of(p), self.lo_bits
            )
            p.zero_grad()

    def master_value(self, p: Parameter) -> np.ndarray:
        """The implicit FP32 master weight of ``p`` (tests/inspection)."""
        return (p.value.view(np.uint32) | self._lo_of(p)).view(np.float32)

    def state_bytes(self, params: list[Parameter]) -> int:
        """Optimizer state: 2 bytes/element (the lo halves)."""
        return sum(p.size * 2 for p in params)

    def state_dict(
        self,
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
    ) -> dict[str, np.ndarray]:
        state = super().state_dict(params, tables)
        for i, p in enumerate(params):
            state[f"lo.{i}"] = self._lo_of(p).copy()
        return state

    def load_state_dict(
        self,
        state: dict[str, np.ndarray],
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
    ) -> None:
        super().load_state_dict(state, params, tables)
        for i, p in enumerate(params):
            self._lo_of(p)[...] = _checked(state, f"lo.{i}", p.shape, np.uint16)


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

    def __init__(self, lr: float, strategy: UpdateStrategy | None = None, eps: float = 1e-8):
        super().__init__(lr, strategy)
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = eps
        self._dense_state: dict[Parameter, np.ndarray] = {}
        self._row_state: dict[EmbeddingBag, np.ndarray] = {}

    def register(self, params: list[Parameter]) -> None:
        for p in params:
            self._dense_state[p] = np.zeros(p.shape, dtype=np.float32)

    def step_dense(self, params: list[Parameter]) -> None:
        for p in params:
            if p.grad is None:
                continue
            acc = self._dense_state.get(p)
            if acc is None:
                raise RuntimeError("parameter not registered with SparseAdagrad")
            acc += p.grad * p.grad
            p.value -= self.lr * p.grad / (np.sqrt(acc) + self.eps)
            p.zero_grad()

    def step_sparse(self, table: EmbeddingBag, grad: SparseGrad) -> None:
        if table.storage != "fp32":
            raise ValueError(
                "SparseAdagrad supports FP32 tables only (see class docstring)"
            )
        acc = self._row_state.get(table)
        if acc is None:
            acc = np.zeros(table.rows, dtype=np.float32)
            self._row_state[table] = acc
        uniq, agg = grad.aggregated()
        # Row-wise accumulator: mean squared gradient over the row.
        acc[uniq] += np.mean(agg * agg, axis=1)
        scale = self.lr / (np.sqrt(acc[uniq]) + self.eps)
        table.scatter_add_rows(uniq, -scale[:, None] * agg)

    def state_bytes(self, params: list[Parameter], tables: list[EmbeddingBag] = ()) -> int:
        dense = sum(p.size * 4 for p in params)
        sparse = sum(t.rows * 4 for t in tables)
        return dense + sparse

    def state_dict(
        self,
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
    ) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {"lr": np.float64(self.lr)}
        for i, p in enumerate(params):
            acc = self._dense_state.get(p)
            state[f"dense.{i}"] = (
                np.zeros(p.shape, dtype=np.float32) if acc is None else acc.copy()
            )
        for tid, table in (tables or {}).items():
            acc = self._row_state.get(table)
            state[f"row.{tid}"] = (
                np.zeros(table.rows, dtype=np.float32) if acc is None else acc.copy()
            )
        return state

    def load_state_dict(
        self,
        state: dict[str, np.ndarray],
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
    ) -> None:
        self.lr = float(state["lr"])
        for i, p in enumerate(params):
            self._dense_state[p] = _checked(state, f"dense.{i}", p.shape, np.float32)
        for tid, table in (tables or {}).items():
            self._row_state[table] = _checked(
                state, f"row.{tid}", (table.rows,), np.float32
            )


class MasterWeightSGD(SGD):
    """Classic BF16 mixed precision with an FP32 master copy.

    Storage: 4 B master + 4 B (BF16-in-FP32 compute tensor) per element
    here; on real silicon 4 B + 2 B = 3x the BF16 model size, which for
    DLRM's hundreds-of-GB tables is "hundreds of Gigabytes more capacity"
    -- the overhead Split-SGD removes.
    """

    name = "master-weight-bf16"

    def __init__(self, lr: float, strategy: UpdateStrategy | None = None):
        super().__init__(lr, strategy)
        self._master: dict[Parameter, np.ndarray] = {}

    def register(self, params: list[Parameter]) -> None:
        for p in params:
            self._master[p] = p.value.astype(np.float32, copy=True)
            p.value[...] = quantize_bf16(p.value)

    def step_dense(self, params: list[Parameter]) -> None:
        for p in params:
            if p.grad is None:
                continue
            master = self._master.get(p)
            if master is None:
                raise RuntimeError("parameter not registered with MasterWeightSGD")
            master -= self.lr * p.grad
            p.value[...] = quantize_bf16(master)
            p.zero_grad()

    def state_bytes(self, params: list[Parameter]) -> int:
        return sum(p.size * 4 for p in params)

    def state_dict(
        self,
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
    ) -> dict[str, np.ndarray]:
        state = super().state_dict(params, tables)
        for i, p in enumerate(params):
            master = self._master.get(p)
            if master is None:
                raise RuntimeError(
                    f"parameter {p.name or i} not registered with MasterWeightSGD"
                )
            state[f"master.{i}"] = master.copy()
        return state

    def load_state_dict(
        self,
        state: dict[str, np.ndarray],
        params: list[Parameter],
        tables: dict[int, EmbeddingBag] | None = None,
    ) -> None:
        super().load_state_dict(state, params, tables)
        for i, p in enumerate(params):
            self._master[p] = _checked(state, f"master.{i}", p.shape, np.float32)
