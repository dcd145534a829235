"""repro.exec: real parallel execution for the reproduction.

:mod:`repro.exec.executor` defines the ``RankExecutor`` surface the one
:class:`~repro.train.Trainer` loop runs over, and its in-process
implementations (``LocalExecutor`` for a single model,
``InlineRankExecutor`` for hybrid-parallel ranks on the thread
backend); ``ProcessRankExecutor`` (:mod:`repro.exec.mp`) runs SPMD
worker processes over shared memory.  One process-wide ``WorkerPool``
(:mod:`repro.exec.pool`; 1 worker unless ``set_pool_workers(n)``, the
CLI's ``--workers n`` or ``REPRO_WORKERS`` say otherwise) runs parallel
ranks, sharded native kernels and the batch prefetch
(:mod:`repro.exec.prefetch`).  At width 1 a ``LocalExecutor`` step
builds its next batch beside the row scatter, which one pinned helper
thread runs (:func:`repro.exec.prefetch.beside`).  Every substrate
trains bitwise identically: they move *when* work happens, never
*what*.
"""
