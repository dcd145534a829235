"""Prefetching data pipeline: synthesize batch ``step+1`` under batch ``step``.

The InTune observation applied to this reproduction: the input pipeline
is pure overhead when it runs synchronously inside the train step.
:class:`LookAhead` submits *future* work to a helper lane of the
process-wide :class:`~repro.exec.pool.WorkerPool` so the host thread
trains on batch ``step`` while a helper synthesizes batch ``step+1``;
the training loader and the serve driver's index synthesis are its two
callers.

Determinism is preserved by construction: datasets are pure functions of
``(seed, batch_index)`` and workload index synthesis is a pure function
of the request, so a prefetched result is bitwise the array the direct
call would have produced -- only the wall-clock moment of its creation
moves.  Checkpoint/resume therefore stays bit-identical: a resumed
trainer asks for an arbitrary start index and the loader simply misses
its lookahead window and computes it directly.

A 1-wide pool schedules nothing: the consumer builds the next position
(:meth:`LookAhead.primer`) in ``with beside(work):``, where the first
call handed to :func:`overlap` (the FP32 row scatter's ``ctypes`` call,
which releases the GIL) runs on the first of the process's
:func:`~repro.exec.pool.helpers`, :func:`~repro.exec.pool.pinned` to its
CPU, while the caller runs ``work()``; with
no helper (one allowed CPU) or no such call (the NumPy tier, a
Split-BF16 or sharded scatter) ``work()`` runs as the block ends.

The same determinism argument is what lets the process backend
(:mod:`repro.exec.mp`) synthesize batches *per worker process* instead
of shipping them: each rank worker owns a private ``PrefetchLoader``
over the same dataset, so only the batch index crosses the parent
pipe and the synthesized bits still equal the sequential run's.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import sys
from concurrent.futures import Future
from typing import Callable, Generic, Iterator, Sequence, TypeVar

from repro.exec.pool import WorkerPool, done, get_pool, helpers, pinned
from repro.obs.tracer import trace

T = TypeVar("T")
R = TypeVar("R")

#: The pending work of the innermost ``beside`` block, until a call takes it.
_work: contextvars.ContextVar[list | None] = contextvars.ContextVar("beside", default=None)


@contextlib.contextmanager
def beside(work: Callable[[], object] | None) -> Iterator[None]:
    """Run ``work()`` once within the block: beside its first
    :func:`overlap`, else as the block ends (not after an exception)."""
    box = [] if work is None else [work]
    token = _work.set(box)
    try:
        yield
    finally:
        _work.reset(token)
    if box:
        box.pop()()


def overlap(call: Callable[[], object]) -> None:
    """``call()``, a native call that releases the GIL and reads no Python
    object: on the first helper, pinned, while the innermost ``beside``
    block's work runs here, when there are both; else here."""
    box = _work.get()
    side = helpers() if box else ()
    if not side:
        call()
        return
    future = side[0].submit(pinned, call)
    try:
        box.pop()()
    finally:
        future.result()


class LookAhead(Generic[R]):
    """``fn(k)`` for integer positions ``k``, computed ahead on a helper lane.

    A call with position ``k`` returns ``fn(k)`` and schedules
    ``k+1..k+depth`` (below ``stop``), so a consumer walking the
    positions in order finds its next result already built.  A miss
    (first call, a jump after resume, any out-of-order access) is
    computed directly and drops the stale window, which re-centres on
    the new cursor -- same bits, ``fn`` being pure.  A hit drops what
    lies behind the cursor (positions a consumer skipped over).
    """

    def __init__(
        self,
        fn: Callable[[int], R],
        depth: int,
        pool: WorkerPool | None = None,
        stop: int = sys.maxsize,
    ):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.fn = fn
        self.depth = depth
        self.pool = pool
        self.stop = stop
        self._pending: dict[int, Future] = {}

    def __call__(self, k: int) -> R:
        pool = self.pool if self.pool is not None else get_pool()
        future = self._pending.pop(k, None)
        if future is None:
            self._pending.clear()
        else:
            self._pending = {p: f for p, f in self._pending.items() if p > k}
        for ahead in range(k + 1, min(k + 1 + self.depth, self.stop)):
            if ahead not in self._pending and pool.effective_workers > 1:
                self._pending[ahead] = pool.submit(self.fn, ahead)
        return self.fn(k) if future is None else future.result()

    def primer(self, k: int) -> Callable[[], None] | None:
        """What builds position ``k`` here for the call that asks for it
        next (any other call drops it; an error waits for that call too);
        None where the pool builds it."""
        pool = self.pool if self.pool is not None else get_pool()
        if pool.effective_workers > 1:
            return None

        def prime() -> None:
            self._pending[k] = done(self.fn, k)

        return prime


class PrefetchLoader:
    """Double-buffered deterministic batches from a dataset.

    ``batch(index)`` returns ``dataset.batch(batch_size, index)`` and
    schedules the next ``depth`` indices on the pool (:class:`LookAhead`),
    so sequential consumers (the Trainer loop) find their next batch
    already built.  Out-of-order access (resume, evaluation probes)
    falls back to a direct synchronous call -- same bits, no stale
    buffers.
    """

    def __init__(
        self,
        dataset,
        batch_size: int,
        pool: WorkerPool | None = None,
        depth: int = 1,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        # No bound method: a cycle back to the loader would keep a primed batch.
        self._ahead = LookAhead(functools.partial(self._synthesize, dataset, batch_size), depth, pool)

    @staticmethod
    def _synthesize(dataset, batch_size: int, index: int):
        """The traced synthesis call both the direct path and the pool
        workers run (spans only observe; the bits are index-pure)."""
        with trace("data.synthesis", rows=batch_size):
            return dataset.batch(batch_size, index)

    def batch(self, index: int):
        """Deterministic batch ``index``; primes ``index+1..index+depth``."""
        return self._ahead(index)

    def primer(self, index: int) -> Callable[[], None] | None:
        return self._ahead.primer(index)


class PrefetchMap(Generic[T, R]):
    """Pool-ahead evaluation of a pure function over a known sequence.

    Built for the serve driver: micro-batch index synthesis
    (``indices_for(mb)``) is a pure function of the micro-batch, and the
    replica loop consumes batches in a known order.  Calling the wrapper
    with item ``k`` returns ``fn(items[k])`` and schedules items
    ``k+1..k+depth`` (:class:`LookAhead`); an item outside the sequence
    is computed directly.
    """

    def __init__(self, fn: Callable[[T], R], items: Sequence[T], depth: int = 2):
        self.fn = fn
        self.items = list(items)
        self._position = {id(item): k for k, item in enumerate(self.items)}
        self._ahead = LookAhead(lambda k: fn(self.items[k]), depth, stop=len(self.items))

    def __call__(self, item: T) -> R:
        k = self._position.get(id(item))
        return self.fn(item) if k is None else self._ahead(k)
