"""Grow-only scratch-buffer arena for steady-state hot loops.

Training and serving steps run the same shapes over and over; the only
thing that changes is the data.  A :class:`Workspace` hands out named
scratch buffers that are allocated once at the largest size requested
and then re-sliced for free, so a steady-state step performs no heap
allocation in its hot path (the paper's "as fast as the hardware
allows" premise applied to the simulator itself).

Buffers are keyed by an arbitrary hashable name; a request is *warm*
(``hits``) when the existing buffer already has the capacity and dtype,
and *cold* (``allocations``) otherwise.  Returned arrays are contiguous
leading views of the backing buffer -- valid until the same key is taken
again, so callers that let a buffer escape must copy it first.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

#: Bytes of a cache line, the unit the embedding kernels move rows in.
LINE_BYTES = 64


def aligned_empty(shape: int | tuple[int, ...], dtype: np.dtype | type) -> np.ndarray:
    """``np.empty(shape, dtype)`` starting on a cache line: the storage
    of every array the native row kernels stream rows through.  glibc
    returns a large block 16 bytes past a line, where a 256-byte row
    spans 5 lines instead of 4; this views a byte buffer ``LINE_BYTES``
    larger from its first line."""
    dtype = np.dtype(dtype)
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + LINE_BYTES, dtype=np.uint8)
    start = -raw.ctypes.data % LINE_BYTES
    return raw[start : start + nbytes].view(dtype).reshape(shape)


class Workspace:
    """Named, grow-only pool of reusable numpy scratch buffers."""

    __slots__ = ("_bufs", "allocations", "hits")

    def __init__(self) -> None:
        self._bufs: dict[Hashable, np.ndarray] = {}
        #: Cold requests (a new backing buffer was allocated).
        self.allocations = 0
        #: Warm requests (an existing buffer was re-sliced).
        self.hits = 0

    def take(
        self, key: Hashable, shape: tuple[int, ...], dtype: np.dtype | type = np.float32
    ) -> np.ndarray:
        """A contiguous ``shape`` view of the buffer named ``key``.

        Reallocates only when ``key`` is new, the dtype changed, or the
        requested element count exceeds the current capacity (and then
        never shrinks).  Contents are uninitialised.
        """
        dtype = np.dtype(dtype)
        n = math.prod(shape)
        buf = self._bufs.get(key)
        if buf is None or buf.dtype != dtype or buf.size < n:
            buf = np.empty(n, dtype)
            self._bufs[key] = buf
            self.allocations += 1
        else:
            self.hits += 1
        return buf[:n].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Resident bytes across all backing buffers."""
        return sum(b.nbytes for b in self._bufs.values())

    def __len__(self) -> int:
        return len(self._bufs)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._bufs

    def clear(self) -> None:
        """Drop every buffer (counters keep their history)."""
        self._bufs.clear()
