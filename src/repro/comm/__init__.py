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

from repro.comm.collectives import (
    tree_sum,
    canonical_range_nodes,
    canonical_node_partials,
    sum_canonical_partials,
)
from repro.comm.backend import (
    BackendSpec,
    mpi_backend,
    ccl_backend,
    local_backend,
    make_backend,
)
from repro.comm.strategies import (
    ExchangeStrategy,
    ScatterListStrategy,
    FusedScatterStrategy,
    AlltoallStrategy,
    make_exchange,
    EXCHANGE_STRATEGIES,
)
from repro.comm.ddp import DistributedDataParallelReducer, GradientBucketer

__all__ = [
    "tree_sum",
    "canonical_range_nodes",
    "canonical_node_partials",
    "sum_canonical_partials",
    "GradientBucketer",
    "BackendSpec",
    "mpi_backend",
    "ccl_backend",
    "local_backend",
    "make_backend",
    "ExchangeStrategy",
    "ScatterListStrategy",
    "FusedScatterStrategy",
    "AlltoallStrategy",
    "make_exchange",
    "EXCHANGE_STRATEGIES",
    "DistributedDataParallelReducer",
]
