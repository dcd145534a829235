"""repro.exec: real parallel execution for the reproduction.

:mod:`repro.exec.executor` defines the :class:`RankExecutor` surface the
one :class:`~repro.train.Trainer` loop runs over -- ``step``, ``predict``,
``state_dicts``/``load_state``, ``clocks``, ``drain_traces``, ``close`` --
and its in-process implementations (:class:`LocalExecutor` for a single
model, :class:`InlineRankExecutor` for hybrid-parallel ranks on the
thread backend); :class:`ProcessRankExecutor` is the process backend's.

Two substrates implement the same bit-exactness contract:

* **thread backend** (:mod:`repro.exec.pool`) -- a process-wide
  GIL-sharing :class:`WorkerPool`; cheap, zero-copy, limited by how much
  time the kernels spend outside the GIL;
* **process backend** (:mod:`repro.exec.mp`) -- SPMD worker processes
  with shared-memory state and a fixed-rank-order collective transport;
  true core-parallel Python, at the cost of spawn latency and one
  memcpy per cross-rank tensor.

Three layers share one process-wide :class:`WorkerPool`:

* **parallel ranks** -- :class:`~repro.parallel.hybrid.DistributedDLRM`
  runs each rank's compute phases concurrently (collectives stay
  fixed-order, so distributed == single-socket bit-exactness holds);
* **parallel kernels** -- the native row kernels shard rows over the
  Alg. 4 static partitions (disjoint ownership, so the parallel result
  is bitwise the sequential one);
* **prefetching pipeline** -- :class:`PrefetchLoader` / :class:`PrefetchMap`
  synthesize the next batch on the pool while the current one computes.

The pool defaults to 1 worker (pure sequential execution); opt in with
``set_pool_workers(n)``, the CLI's ``--workers n``, or ``REPRO_WORKERS``.
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
