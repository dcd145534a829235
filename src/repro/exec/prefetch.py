"""The next batch, built beside the step: synthesize batch ``k+1`` under batch ``k``.

The InTune observation applied to this reproduction: the input pipeline
is pure overhead when it runs synchronously inside the train step.
Both in-process executors (and so every process-backend worker) run step
``k`` in ``with beside(loader.primer(k + 1)):``, where the first call
handed to :func:`overlap` (the FP32 row scatter's ``ctypes`` call, which
releases the GIL) runs on the first helper while the caller synthesizes
batch ``k+1`` (:func:`~repro.exec.pool.fork_join`); with no helper (one
allowed CPU), inside a pool task, or with no such call (the NumPy tier,
a Split-BF16 or sharded scatter) the batch is built as the block ends.

Determinism is preserved by construction: datasets are pure functions of
``(seed, batch_index)``, so a primed batch is bitwise the array the
direct call would have produced -- only the wall-clock moment of its
creation moves.  Checkpoint/resume therefore stays bit-identical: a
resumed trainer asks for an arbitrary start index and the loader simply
misses its primed slot and computes it directly.

The same determinism argument is what lets the process backend
(:mod:`repro.exec.mp`) synthesize batches *per worker process* instead
of shipping them: each rank worker owns a private ``PrefetchLoader``
over the same dataset, so only the batch index crosses the parent
pipe and the synthesized bits still equal the sequential run's.
"""

from __future__ import annotations

import contextlib
import contextvars
from concurrent.futures import Future
from typing import Callable, Iterator

from repro.exec.pool import done, fork_join
from repro.obs.tracer import trace

#: The pending work of the innermost ``beside`` block, until a call takes it.
_work: contextvars.ContextVar[list | None] = contextvars.ContextVar("beside", default=None)


@contextlib.contextmanager
def beside(work: Callable[[], object]) -> Iterator[None]:
    """Run ``work()`` once within the block: beside its first
    :func:`overlap`, else as the block ends (not after an exception)."""
    box = [work]
    token = _work.set(box)
    try:
        yield
    finally:
        _work.reset(token)
    if box:
        box.pop()()


def overlap(call: Callable[[], object]) -> None:
    """``call()``, a native call that releases the GIL and reads no Python
    object: beside the innermost ``beside`` block's work where
    :func:`~repro.exec.pool.fork_join` takes the helper, else here."""
    box = _work.get()
    if not (box and fork_join(lambda: box.pop()(), call)):
        call()


class PrefetchLoader:
    """Deterministic batches from a dataset, with one primed slot.

    ``batch(index)`` returns ``dataset.batch(batch_size, index)``: the
    slot's batch when :meth:`primer` filled it for ``index``, else a
    direct synchronous call (resume, a jump) -- same bits either way.
    Any call drops the slot, so no stale batch outlives the next step.
    """

    def __init__(self, dataset, batch_size: int):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        #: ``(index, future)`` of the primed batch, or None.
        self._primed: tuple[int, Future] | None = None

    def _synthesize(self, index: int):
        """The traced synthesis call, primed or direct (spans only
        observe; the bits are index-pure)."""
        with trace("data.synthesis", rows=self.batch_size):
            return self.dataset.batch(self.batch_size, index)

    def batch(self, index: int):
        """Deterministic batch ``index`` (a primed one's error raises here)."""
        primed, self._primed = self._primed, None
        if primed is not None and primed[0] == index:
            return primed[1].result()
        return self._synthesize(index)

    def primer(self, index: int) -> Callable[[], None]:
        """What fills the slot with batch ``index`` for the :meth:`batch`
        call that asks for it next (an error waits for that call too)."""

        def prime() -> None:
            self._primed = (index, done(self._synthesize, index))

        return prime
