"""repro.exec: real parallel execution for the reproduction.

:mod:`repro.exec.executor` defines the :class:`RankExecutor` surface the
one :class:`~repro.train.Trainer` loop runs over, and its in-process
implementations (:class:`LocalExecutor` for a single model,
:class:`InlineRankExecutor` for hybrid-parallel ranks on the thread
backend); :class:`ProcessRankExecutor` (:mod:`repro.exec.mp`) runs
SPMD worker processes over shared memory.  One process-wide
:class:`WorkerPool` (1 worker unless ``set_pool_workers(n)``, the CLI's
``--workers n`` or ``REPRO_WORKERS`` say otherwise) runs parallel
ranks, sharded native kernels and the batch prefetch
(:class:`PrefetchLoader` / :class:`PrefetchMap`).  At width 1 a
:class:`LocalExecutor` step builds its next batch beside the row
scatter, which one pinned helper thread runs
(:func:`repro.exec.prefetch.beside`).  Every substrate trains bitwise
identically: they move *when* work happens, never *what*.
"""

from repro.exec.executor import InlineRankExecutor, LocalExecutor, RankExecutor
from repro.exec.mp import ProcessRankExecutor, in_worker_process
from repro.exec.pool import WorkerPool, get_pool, set_pool_workers
from repro.exec.prefetch import PrefetchLoader, PrefetchMap

#: Execution substrates selectable by Trainer.from_spec(backend=...) --
#: distinct from the *communication* backends of repro.comm.backend
#: ("mpi"/"ccl"/"local"), which model collective timing.
EXEC_BACKENDS = ("thread", "process")

__all__ = [
    "EXEC_BACKENDS",
    "InlineRankExecutor",
    "LocalExecutor",
    "ProcessRankExecutor",
    "RankExecutor",
    "WorkerPool",
    "get_pool",
    "in_worker_process",
    "set_pool_workers",
    "PrefetchLoader",
    "PrefetchMap",
]
