"""repro.exec: real parallel execution for the reproduction.

:mod:`repro.exec.executor` defines the ``RankExecutor`` surface the one
:class:`~repro.train.Trainer` loop runs over, and its in-process
implementations (``LocalExecutor`` for a single model,
``InlineRankExecutor`` for hybrid-parallel ranks on the thread
backend); ``ProcessRankExecutor`` (:mod:`repro.exec.mp`) runs SPMD
worker processes over shared memory.  A process has one set of threads,
:func:`repro.exec.pool.helpers`: one for each allowed CPU but the
creator's.  The process-wide ``WorkerPool`` (1 wide unless
``set_pool_workers(n)``, the CLI's ``--workers n`` or a spec's
``parallel.exec_workers`` say otherwise) shards parallel ranks and
native kernels over the caller and those helpers, and submits the batch
prefetch (:mod:`repro.exec.prefetch`) to them.  At width 1 a
``LocalExecutor`` step builds its next batch while the first helper runs
the row scatter (:func:`repro.exec.prefetch.beside`).  Every substrate
trains bitwise identically: they move *when* work happens, never
*what*.
"""
