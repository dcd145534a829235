"""Communication substrate: the canonical summation tree, backend
progress models, exchange strategies and a DDP-style gradient reducer.

This package replaces ``torch.distributed`` + MPI/oneCCL.  The exchange
strategies and the gradient reducer perform real data movement over
per-rank NumPy buffers (exactness is property-tested); their *cost* is
charged by the simulated cluster
(:mod:`repro.parallel.cluster`) according to the backend's progress model
-- the single unpinned progress thread of the PyTorch MPI backend vs.
oneCCL's pinned multi-worker engine (paper Sect. IV-C).

Contract: every reduction uses the canonical fixed-rank-order summation
tree (:func:`repro.comm.collectives.tree_sum`), so results are
bit-identical for any bucket size, issue schedule, backend or worker
count -- timing knobs move *when* communication happens, never the sum.
"""
