"""Dense parameter container and the slab that lays a model's out flat.

A :class:`Parameter` owns one FP32 tensor and its gradient.  A
:class:`DenseSlab` adopts a list of parameters into two flat FP32
buffers -- all values, all gradients -- so an optimizer can update the
whole model with a handful of ``out=`` ufunc calls instead of a Python
loop over tensors (paper Sect. VII: Split-SGD has to cost what FP32 SGD
costs).

The contract that keeps the flats and the tensors one memory: after
adoption nobody *rebinds* ``Parameter.value`` or the gradient storage;
every writer goes through ``[...]``, ``out=`` or an in-place operator.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.kernels.workspace import LINE_BYTES, aligned_empty

#: Slot alignment in FP32 elements: one cache line, one AVX-512 vector.
_SLOT_ELEMS = LINE_BYTES // 4


class Prefixed(Mapping):
    """The entries of ``state`` under ``prefix``, keyed without it.  Only
    ``[key]`` reads an entry (an archive's reads the member), so a
    constructor or ``load_state_dict`` handed one reads each entry once."""

    def __init__(self, state: Mapping[str, np.ndarray], prefix: str):
        if isinstance(state, Prefixed):  # one level, named by its whole prefix
            state, prefix = state.state, state.prefix + prefix
        self.state, self.prefix = state, prefix

    def __getitem__(self, key: str) -> np.ndarray:
        return self.state[self.prefix + key]

    def __contains__(self, key) -> bool:
        return self.prefix + key in self.state

    def __iter__(self) -> Iterator[str]:
        n = len(self.prefix)
        return (k[n:] for k in self.state if k.startswith(self.prefix))

    def __len__(self) -> int:
        return sum(1 for _ in self)


def checked_entry(
    state: Mapping[str, np.ndarray], key: str, shape: tuple[int, ...], dtype: type
) -> np.ndarray:
    """``state[key]``, verified to be a ``shape`` array of ``dtype``: what
    every ``load_state_dict`` copies (or constructor takes) into its own
    storage.  Strict on dtype too -- a float64 entry would load with
    silent rounding, which breaks the checkpoint contract."""
    if key not in state:
        raise KeyError(f"missing state entry {getattr(state, 'prefix', '') + key!r}")
    value = np.asarray(state[key])
    if value.dtype != np.dtype(dtype):
        raise ValueError(f"{key}: dtype {value.dtype} != expected {np.dtype(dtype)}")
    if value.shape != tuple(shape):
        raise ValueError(f"{key}: shape {value.shape} != expected {tuple(shape)}")
    return value


class Parameter:
    """A trainable FP32 tensor with an accumulated gradient.

    The gradient convention follows the loss normalisation chosen by the
    model: ``grad`` holds d(loss)/d(value) and optimizers subtract
    ``lr * grad``.  The gradient lives in one persistent buffer (a slab
    view once adopted); ``grad`` reads ``None`` while nothing is pending.
    """

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.ascontiguousarray(value, dtype=np.float32)
        self.name = name
        #: The :class:`DenseSlab` that adopted this parameter, and where.
        self.slab: DenseSlab | None = None
        self.slot = -1
        self._grad: np.ndarray | None = None
        self._pending = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return self.value.size

    @property
    def nbytes(self) -> int:
        return self.value.nbytes

    @property
    def grad(self) -> np.ndarray | None:
        """The pending gradient (a live view: write it through ``[...]``)."""
        return self._grad if self._pending else None

    def zero_grad(self) -> None:
        self._pending = False

    def fresh_grad(self) -> np.ndarray:
        """The gradient storage, marked pending, for a producer that
        *overwrites* it with the first gradient (``np.matmul(out=...)``).
        Only valid while ``grad is None``."""
        if self._pending:
            raise RuntimeError("fresh_grad() with a gradient already pending")
        if self._grad is None:
            if self.slab is None:
                self._grad = np.empty(self.value.shape, dtype=np.float32)
            else:
                self._grad = self.slab.view(self.slab.grads, self.slot)
        self._pending = True
        return self._grad

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into the gradient (the first one is copied in)."""
        if g.shape != self.value.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {self.value.shape}"
            )
        if self._pending:
            self._grad += g
        else:
            np.copyto(self.fresh_grad(), g)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name or 'unnamed'}, shape={self.value.shape})"


class DenseSlab:
    """Values and gradients of a parameter list, each in one FP32 flat.

    Construction *adopts* the parameters: slot ``i`` holds the ``i``-th
    one at element offset ``offsets[i]``, a multiple of 16, so every
    ``value``/gradient becomes a C-contiguous, 64-byte-aligned view.
    The padding between slots is zero and stays zero under any
    element-wise update of the flats (``0 - lr * 0``), which is what
    lets an optimizer step a :meth:`span` of ``values``/``grads`` whole.
    Optimizer state mirrors the layout (velocity, Split-SGD lo halves,
    Adagrad accumulators, master weights): a flat from :meth:`zeros`,
    addressed per parameter with :meth:`view`.
    """

    def __init__(self, params: list[Parameter]):
        taken = [p for p in params if p.slab is not None]
        if taken:
            raise ValueError(f"{taken[0]!r} already belongs to a slab")
        # Parameters point at their slab, never the reverse: a cycle
        # would keep a dropped model's flats alive until the cyclic GC.
        self.shapes = [p.shape for p in params]
        self.offsets: list[int] = []
        size = 0
        for p in params:
            self.offsets.append(size)
            size += -(-p.size // _SLOT_ELEMS) * _SLOT_ELEMS
        self.size = size
        self.values = self.zeros(np.float32)
        self._grads: np.ndarray | None = None
        for slot, p in enumerate(params):
            value = self.view(self.values, slot)
            value[...] = p.value
            pending = p.grad
            # The one rebind of a parameter's storage: adoption.
            p.value, p._grad, p._pending = value, None, False
            p.slab, p.slot = self, slot
            if pending is not None:
                np.copyto(p.fresh_grad(), pending)

    def __len__(self) -> int:
        return len(self.shapes)

    def zeros(self, dtype: type) -> np.ndarray:
        """A zeroed, aligned flat with this slab's slot layout."""
        flat = aligned_empty(self.size, dtype)
        flat[...] = 0
        return flat

    def view(self, flat: np.ndarray, slot: int) -> np.ndarray:
        """Slot ``slot`` of a slab-shaped ``flat``, in the parameter's shape."""
        shape = self.shapes[slot]
        start = self.offsets[slot]
        return flat[start : start + math.prod(shape)].reshape(shape)

    @property
    def grads(self) -> np.ndarray:
        """The gradient flat, allocated with the first gradient (a model
        that only serves never pays for it)."""
        if self._grads is None:
            self._grads = self.zeros(np.float32)
        return self._grads

    def span(self, params: Sequence[Parameter]) -> slice:
        """Where ``params`` -- consecutive slots of this slab, in slot
        order -- sit in a slab-shaped flat: from the first one's offset
        through the padding behind the last."""
        first = params[0].slot if params else -1
        if not params or any(
            p.slab is not self or p.slot != first + i for i, p in enumerate(params)
        ):
            raise ValueError("a span is a non-empty run of consecutive slots of one slab")
        stop = first + len(params)
        return slice(self.offsets[first], self.offsets[stop] if stop < len(self) else self.size)
