"""Batch-reduce GEMM and the blocked matmul of paper Algorithm 5.

The batch-reduce GEMM microkernel multiplies a *batch* of (A_i, B_i)
sub-block pairs and reduces them into a single output block:

    Out += sum_i  B_i @ A_i

It is the single building block from which the paper constructs all three
MLP training passes.  Here the kernel is an exact NumPy computation; the
surrounding loop nest (output-block ownership per thread, address-list
preparation per ``Cb`` reduction) follows Alg. 5 line by line so that unit
tests can check the decomposition against a plain ``x @ w.T`` reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.blocked import BlockedLayout
from repro.kernels.threads import resolve_pool, static_partition


@dataclass
class FlopCounter:
    """Accumulates the floating-point work executed by the kernels.

    The benchmarks use this to convert *executed work* into *modelled
    time* without re-deriving shapes.
    """

    flops: float = 0.0
    bytes_moved: float = 0.0
    calls: int = 0

    def add_gemm(self, m: int, n: int, k: int) -> None:
        self.flops += 2.0 * m * n * k
        self.bytes_moved += 4.0 * (m * k + k * n + 2 * m * n)
        self.calls += 1

    def merge(self, other: "FlopCounter") -> None:
        self.flops += other.flops
        self.bytes_moved += other.bytes_moved
        self.calls += other.calls

    def reset(self) -> None:
        """Zero all accumulators (benchmarks reuse one counter per phase)."""
        self.flops = 0.0
        self.bytes_moved = 0.0
        self.calls = 0


def reference_gemm(x: np.ndarray, w: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Plain ``Y[N, K] = X[N, C] @ W[K, C].T`` -- the PyTorch/MKL baseline."""
    n, c = x.shape
    k, c2 = w.shape
    if c != c2:
        raise ValueError(f"inner dims differ: {c} vs {c2}")
    if counter is not None:
        counter.add_gemm(n, k, c)
    return x @ w.T


def batch_reduce_gemm(
    a_blocks: np.ndarray,
    b_blocks: np.ndarray,
    out: np.ndarray,
    counter: FlopCounter | None = None,
) -> None:
    """The microkernel: ``out += sum_i b_blocks[i] @ a_blocks[i]``.

    ``a_blocks`` has shape ``[Cb, bc, bk]`` (weight sub-blocks), ``b_blocks``
    shape ``[Cb, bn, bc]`` (activation sub-blocks), ``out`` shape
    ``[bn, bk]``.  Accumulation happens in FP32, in place.
    """
    cb, bc, bk = a_blocks.shape
    cb2, bn, bc2 = b_blocks.shape
    if cb != cb2 or bc != bc2:
        raise ValueError(
            f"mismatched batch-reduce operands: A{a_blocks.shape} B{b_blocks.shape}"
        )
    if out.shape != (bn, bk):
        raise ValueError(f"out must be ({bn}, {bk}), got {out.shape}")
    # One fused contraction over the reduction batch -- the NumPy analogue
    # of the JIT-ed loop over Cb with accumulation in registers.
    np.add(out, np.einsum("inc,ick->nk", b_blocks, a_blocks, optimize=True), out=out)
    if counter is not None:
        counter.flops += 2.0 * cb * bn * bc * bk
        counter.bytes_moved += 4.0 * (cb * bc * bk + cb * bn * bc + 2 * bn * bk)
        counter.calls += 1


#: Minimum x4 elements before the fast path shards over the pool
#: (distinct name from the row kernels' threshold in
#: :mod:`repro.kernels.threads`, which is far higher: GEMMs are
#: compute-bound and profit from threads much earlier).
GEMM_PARALLEL_MIN_ELEMS = 1 << 14


def blocked_matmul(
    x4: np.ndarray,
    w4: np.ndarray,
    layout: BlockedLayout,
    threads: int = 1,
    counter: FlopCounter | None = None,
    pool=None,
) -> np.ndarray:
    """Paper Algorithm 5: the forward pass of a fully connected layer.

    ``x4`` is ``[Cb][Nb][bn][bc]``, ``w4`` is ``[Kb][Cb][bc][bk]``; the
    result is ``[Kb][Nb][bn][bk]``.  Output blocks are statically assigned
    to ``threads`` workers over the (Kb, Nb) grid; each worker prepares the
    per-``Cb`` address lists and calls the batch-reduce kernel, exactly as
    lines 1-9 of Alg. 5 describe.  When the process-wide worker pool is
    wider than one thread, those static ranges run *concurrently* -- each
    range owns disjoint output blocks and a private flop counter (merged
    in range order), so the result and the accounting are bitwise the
    sequential ones.

    When no ``counter`` is requested (nothing observes the per-block
    decomposition), the Python loop over ``(Kb, Nb)`` work items is
    skipped entirely: all output blocks come from one reshaped
    ``tensordot`` -- a single large matmul, the way a production kernel
    would amortise dispatch.  With a multi-worker pool the fast path
    row-shards the ``Nb`` axis over the Alg. 4 static partition: each
    worker contracts its minibatch-block slice with the same reduction
    extent, which leaves every output element's dot product untouched
    (pinned bitwise by ``tests/kernels/test_parallel_kernels.py``).
    """
    cb, nb, bn, bc = x4.shape
    kb, cb2, bc2, bk = w4.shape
    if cb != cb2 or bc != bc2:
        raise ValueError(f"layout mismatch: X{x4.shape} W{w4.shape}")
    layout.validate(nb * bn, cb * bc, kb * bk)
    if counter is None:
        resolved = resolve_pool(pool)
        if (
            resolved.effective_workers > 1
            and nb >= 2
            and x4.size >= GEMM_PARALLEL_MIN_ELEMS
        ):
            y4 = np.empty((kb, nb, bn, bk), dtype=np.result_type(x4, w4))

            def _shard(lo: int, hi: int, tid: int) -> None:
                part = np.tensordot(x4[:, lo:hi], w4, axes=([0, 3], [1, 2]))
                y4[:, lo:hi] = part.transpose(2, 0, 1, 3)

            resolved.run_sharded(_shard, nb)
            return y4
        # Fast path: contract (Cb, bc) in one shot; [Nb, bn, Kb, bk] out.
        y = np.tensordot(x4, w4, axes=([0, 3], [1, 2]))
        return np.ascontiguousarray(y.transpose(2, 0, 1, 3))
    y4 = np.zeros((kb, nb, bn, bk), dtype=np.result_type(x4, w4))
    work_items = [(ibk, ibn) for ibk in range(kb) for ibn in range(nb)]
    ranges = static_partition(len(work_items), threads)

    def _run_range(bounds: tuple[int, int]) -> FlopCounter:
        sub = FlopCounter()
        for ibk, ibn in work_items[bounds[0] : bounds[1]]:
            # Lines 5-8: gather the Cb sub-blocks feeding this output block.
            a_ptrs = w4[ibk]          # [Cb, bc, bk]
            b_ptrs = x4[:, ibn]       # [Cb, bn, bc]
            batch_reduce_gemm(a_ptrs, b_ptrs, y4[ibk, ibn], sub)
        return sub

    for sub in resolve_pool(pool).map(_run_range, ranges):
        counter.merge(sub)
    return y4
