"""Kernel substrate: row operators, static thread partitions, workspaces.

These modules stand in for the LIBXSMM microkernels the paper builds on.
The MLP's GEMMs are not among them: :mod:`repro.core.mlp` calls one
product function per pass (``np.matmul``, or the emulated BF16 dot
product), and the paper's Algorithm 5 (blocked layouts + batch-reduce
GEMM) is priced by the cost model, not executed.

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

from repro.kernels.threads import (
    bucket_by_row_ranges,
    static_partition,
)
from repro.kernels.workspace import Workspace

__all__ = [
    "bucket_by_row_ranges",
    "Workspace",
    "static_partition",
]
