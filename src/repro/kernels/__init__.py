"""Kernel substrate: blocked tensor layouts, batch-reduce GEMM, threading.

These modules stand in for the LIBXSMM/MKL microkernels the paper builds
on.  The numerics are exact FP32 NumPy; the *loop structure* mirrors the
paper's Algorithm 5 (blocked layouts + batch-reduce GEMM) so that the
code path being cost-modelled is the code path that actually executes.

The embedding and optimizer row operators, the dot interaction and the
Criteo generator's two data kernels come in two tiers with the same
bits: NumPy formulations (:mod:`~repro.kernels.rows`,
:mod:`~repro.kernels.synth`, :mod:`~repro.kernels.interaction`) and C
loops compiled on first use (:mod:`~repro.kernels.native`).  The NumPy
tier of each sparse row operator *is* its ``np.add.at`` oracle from
:mod:`~repro.kernels.reference`, applied a bounded block at a time.
:mod:`~repro.kernels.dispatch` picks one tier per call from what the
process and the arrays are; nothing outside this package can tell which.
"""

from repro.kernels.blocked import (
    BlockedLayout,
    block_activation,
    unblock_activation,
    block_weight,
    unblock_weight,
    choose_blocking,
)
from repro.kernels.gemm import (
    reference_gemm,
    batch_reduce_gemm,
    blocked_matmul,
    FlopCounter,
)
from repro.kernels.threads import (
    bucket_by_row_ranges,
    static_partition,
    row_range_for_thread,
    partition_balance,
)
from repro.kernels.workspace import Workspace

__all__ = [
    "bucket_by_row_ranges",
    "Workspace",
    "BlockedLayout",
    "block_activation",
    "unblock_activation",
    "block_weight",
    "unblock_weight",
    "choose_blocking",
    "reference_gemm",
    "batch_reduce_gemm",
    "blocked_matmul",
    "FlopCounter",
    "static_partition",
    "row_range_for_thread",
    "partition_balance",
]
