"""Shared-memory primitives of the process backend (``repro.exec.shm``).

:class:`ShmBlock` is the one lifecycle of a named POSIX shared-memory
segment -- create or attach, name, close, unlink -- and the three things
the process backend keeps in shared memory derive from it:

* :class:`ShmArena` -- a fixed dict of arrays (one rank's model and
  optimizer state) both sides read and write in place;
* :class:`ShmMailbox` -- a double-buffered, seqlock-headed slot pair
  carrying one worker's per-round phase payload to its peers;
* :class:`~repro.resilience.heartbeat.HeartbeatBoard` -- per-worker
  liveness stamps.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import struct
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.util import retry

#: Phase-mailbox capacity override (MiB), for models whose phase
#: payloads outgrow the automatic estimate.
MAILBOX_ENV = "REPRO_MP_MAILBOX_MB"

_ALIGN = 64

#: Mappings whose close() hit live exported views: kept alive so their
#: __del__ never retries (and warns); the OS reclaims them at exit.
_PINNED: list[shared_memory.SharedMemory] = []

_NAME_SEQ = itertools.count(1)


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class ShmBlock:
    """One named shared-memory segment.

    ``nbytes`` creates (and owns) it, None attaches to an existing one;
    subclasses take ``(name, *spec, create=False)``, where ``spec`` (a
    layout, a capacity, a worker count) says how to read the bytes and,
    on create, how many to ask for.  ``close`` drops this process's
    mapping -- or pins it when views handed out earlier (checkpoint
    reads, zero-copy gathers) are still alive, which
    ``SharedMemory.close`` refuses with ``BufferError``; the OS reclaims
    a pinned mapping at process exit.  ``unlink`` removes the name and is
    the owner's alone.
    """

    def __init__(self, name: str, nbytes: int | None):
        self._owner = nbytes is not None
        self._shm = shared_memory.SharedMemory(name=name, create=self._owner, size=nbytes or 0)

    @classmethod
    def create_unique(cls, tag: str, *spec: Any):
        """Create under a fresh name: ``rpx``, the pid, a process-wide
        sequence number and ``tag`` -- collision-free across concurrent
        executors and short enough for macOS's 31-char limit.  Transient
        races (EEXIST from a recycled pid's name, ENOSPC from a briefly
        full /dev/shm) get another name and a deterministic-jitter retry
        instead of killing the build."""

        def create():
            name = f"rpx{os.getpid() % 0xFFFFF:05x}{next(_NAME_SEQ):03x}{tag}"
            return cls(name, *spec, create=True)

        return retry(create, attempts=3, backoff=0.02, jitter_seed=tag)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        try:
            self._shm.close()
        except (OSError, BufferError):
            _PINNED.append(self._shm)

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# -- arenas (state placement) --------------------------------------------------

#: One arena entry: (key, shape, dtype-string, byte offset).
ArenaLayout = list[tuple[str, tuple[int, ...], str, int]]


class ShmArena(ShmBlock):
    """A fixed dict of arrays in one block.

    The parent computes the layout from a template state dict (its
    replica), creates the block, and reads/writes it directly; workers
    attach by name and mirror their live state in/out.  Nothing is ever
    serialized -- both sides see the same bytes.  Keys may share a
    ``prefix`` (one rank's model and optimizer state live in one arena);
    :meth:`views`, :meth:`read` and :meth:`write` address one prefix's
    entries under their bare keys.
    """

    def __init__(self, name: str, layout: ArenaLayout, create: bool = False):
        super().__init__(name, self.nbytes_for(layout) if create else None)
        self.layout = layout
        # frombuffer, not ndarray(buffer=): it keeps the buffer exported for
        # as long as a view lives, which is what lets close() pin.
        self._views = {
            key: np.frombuffer(self._shm.buf, dt, math.prod(shape), off).reshape(shape)
            for key, shape, dt, off in layout
        }

    @staticmethod
    def layout_for(state: dict[str, np.ndarray]) -> ArenaLayout:
        """Compute a layout covering ``state`` (insertion order, aligned)."""
        layout: ArenaLayout = []
        offset = 0
        for key, value in state.items():
            arr = np.asarray(value)
            layout.append((key, tuple(arr.shape), arr.dtype.str, offset))
            offset += _aligned(max(1, arr.nbytes))
        return layout

    @staticmethod
    def nbytes_for(layout: ArenaLayout) -> int:
        if not layout:
            return _ALIGN
        _, shape, dt, off = layout[-1]
        return off + _aligned(max(1, math.prod(shape) * np.dtype(dt).itemsize))

    def views(self, prefix: str = "") -> dict[str, np.ndarray]:
        """The live shared view (no copy) of every entry under
        ``prefix``, in layout order, keyed without it."""
        return {
            key[len(prefix) :]: view
            for key, view in self._views.items()
            if key.startswith(prefix)
        }

    def write(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        """Copy ``state`` into the entries under ``prefix`` (its keys
        must cover them; extra keys are ignored)."""
        for key, view in self.views(prefix).items():
            arr = np.asarray(state[key])
            if arr.shape != view.shape or arr.dtype != view.dtype:
                raise ValueError(
                    f"arena entry {prefix + key!r} changed shape/dtype: layout has "
                    f"{view.shape}/{view.dtype.str}, got {arr.shape}/{arr.dtype.str}"
                )
            view[...] = arr

    def read(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Copy the entries under ``prefix`` out as a fresh state dict."""
        return {key: np.array(view, copy=True) for key, view in self.views(prefix).items()}

    def close(self) -> None:
        self._views = {}
        super().close()


# -- mailboxes (phase transport) -----------------------------------------------

#: header: round sequence, pickle nbytes, out-of-band buffer count.
_HEADER = struct.Struct("<qqq")


class MailboxOverflow(RuntimeError):
    pass


class ShmMailbox(ShmBlock):
    """A single-writer, many-reader, double-buffered mailbox for one
    worker's per-round phase payload.

    ``publish`` pickles the payload with protocol 5, spilling every
    NumPy buffer out-of-band straight into the round's slot (round
    parity picks one of two slots); the slot header's round sequence is
    written last, seqlock-style, so a reader that arrives through the
    barrier can assert it is looking at the round it expects.

    ``read`` is **zero-copy**: the reconstructed arrays are read-only
    views into the writer's slot.  Double buffering makes that safe
    without a second drain barrier: the writer's round ``k+2`` publish
    is the first that reuses round ``k``'s slot, and it cannot start
    until every worker has passed the round ``k+1`` barrier -- i.e.
    until every consumer of round ``k`` has moved on.  Gathered views
    must therefore be consumed (or copied) before the *next* collective
    round completes, which every orchestration phase does.
    """

    def __init__(self, name: str, capacity: int | None = None, create: bool = False):
        super().__init__(name, 2 * capacity if create else None)
        self._slot = self._shm.size // 2

    def publish(self, obj: Any, seq: int) -> None:
        buffers: list[pickle.PickleBuffer] = []
        payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        raws = [b.raw() for b in buffers]
        lens = np.array([r.nbytes for r in raws], dtype=np.int64)
        base = (seq % 2) * self._slot
        buf = self._shm.buf
        offset = _HEADER.size + lens.nbytes
        total = _aligned(offset + len(payload)) + sum(_aligned(int(n)) for n in lens)
        if total > self._slot:
            raise MailboxOverflow(
                f"phase payload of {total} bytes exceeds the {self._slot}-byte "
                f"mailbox slot; set {MAILBOX_ENV} to raise the capacity"
            )
        buf[base + _HEADER.size : base + offset] = lens.tobytes()
        buf[base + offset : base + offset + len(payload)] = payload
        cursor = base + _aligned(offset + len(payload))
        for raw, n in zip(raws, lens):
            buf[cursor : cursor + int(n)] = raw
            cursor += _aligned(int(n))
        # Seq goes last: a reader past the barrier must see this round.
        _HEADER.pack_into(buf, base, seq, len(payload), len(lens))
        for raw in raws:
            raw.release()

    def read(self, seq: int) -> Any:
        base = (seq % 2) * self._slot
        buf = self._shm.buf
        got_seq, npickle, nbuf = _HEADER.unpack_from(buf, base)
        if got_seq != seq:
            raise RuntimeError(
                f"mailbox out of sync: expected round {seq}, found {got_seq} "
                "(a peer worker skipped or repeated a collective round)"
            )
        lens = np.frombuffer(buf, dtype=np.int64, count=nbuf, offset=base + _HEADER.size)
        offset = base + _HEADER.size + lens.nbytes
        payload = bytes(buf[offset : offset + npickle])
        cursor = base + _aligned(offset - base + npickle)
        buffers = []
        for n in lens:
            # Read-only zero-copy views: accidental writes raise, and the
            # double-buffer lifetime rule above covers staleness.
            buffers.append(buf[cursor : cursor + int(n)].toreadonly())
            cursor += _aligned(int(n))
        return pickle.loads(payload, buffers=buffers)

    def tear_header(self, seq: int) -> None:
        """Fault injection only (``torn_write``): rewrite the slot header
        with a stale round sequence, so peers reading round ``seq`` see
        the seqlock tear and raise instead of consuming stale bytes."""
        base = (seq % 2) * self._slot
        _, npickle, nbuf = _HEADER.unpack_from(self._shm.buf, base)
        _HEADER.pack_into(self._shm.buf, base, seq - 2, npickle, nbuf)
