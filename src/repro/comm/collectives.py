"""Functional collectives over per-rank NumPy buffers.

These are the data-movement semantics of the collectives the paper uses
(allreduce realised as reduce-scatter + allgather, personalised alltoall,
per-table scatters).  They follow the mpi4py buffer-object conventions:
the caller hands one buffer (or buffer list) per rank, and receives
result arrays; nothing here knows about time -- the simulated cluster
charges cost separately.

All functions are exact (FP32 sums over one *canonical summation tree*,
see :func:`tree_sum`) so that the distributed == single-socket
equivalence tests can demand bitwise reproducibility.  The tree is a
pure function of the rank count: every realisation of a sum collective
-- the direct fold here and the hierarchical shared-memory fold of the
process backend (:mod:`repro.exec.mp`) -- combines partial sums at the
same tree nodes in the same order, so they all produce the same bits at
any worker count (``tests/comm/test_ring.py`` holds both to a
step-by-step recursive-halving ring written as their oracle).

Aliasing convention: the *sum* collectives (:func:`allreduce_sum`,
:func:`reduce_scatter_sum`, :func:`allgather_concat`) accumulate into a
single buffer and hand every rank a reference (or slice view) of it
rather than a per-rank copy -- the replicated result is identical by
definition, and no caller mutates a received reduction in place (they
read it or copy it into parameters).  Inputs are never modified.  The
*routing* collectives (alltoall/scatter/gather) still copy: their
outputs alias caller-owned send buffers otherwise.
"""

from __future__ import annotations

import numpy as np


def _check_same_shapes(bufs: list[np.ndarray]) -> None:
    if not bufs:
        raise ValueError("need at least one rank buffer")
    shape, dtype = bufs[0].shape, bufs[0].dtype
    for i, b in enumerate(bufs):
        if b.shape != shape:
            raise ValueError(f"rank {i} buffer shape {b.shape} != rank 0 {shape}")
        # The in-place accumulation folds into rank 0's dtype; a wider
        # rank buffer would silently downcast, so reject mixed dtypes
        # (real collectives are homogeneous anyway).
        if b.dtype != dtype:
            raise ValueError(f"rank {i} buffer dtype {b.dtype} != rank 0 {dtype}")


def _split(lo: int, hi: int) -> int:
    """The canonical tree's split point for node ``[lo, hi)``.

    Left-heavy halving: the left child takes ``ceil(n/2)`` ranks.  The
    rule depends only on the *size* of the range, so the subtree over any
    contiguous rank range is isomorphic to the tree over a zero-based
    range of the same length -- which is what lets a process-backend
    worker reduce its contiguous rank slice locally and still land on
    the global tree's node values (see :func:`canonical_range_nodes`).
    """
    return lo + (hi - lo + 1) // 2


#: Elements per pass of a fold into a caller's buffer: a block of every
#: input, of the sum and of a tree level's temporary stays in L2 across
#: the adds, so each byte moves once however deep the tree.
FOLD_BLOCK = 1 << 15


def _fold(
    nodes: dict[tuple[int, int], np.ndarray], lo: int, hi: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, bool]:
    """Sum ranks ``[lo, hi)`` over the canonical tree from ``nodes``,
    the tree nodes already known (the leaves, or subtree partials).

    Returns ``(total, owned)``: a node found in ``nodes`` is *borrowed*
    (``owned=False``) and never written; an internal node allocates at
    most once (the combine of two borrowed children; ``out`` takes it on
    the root's left spine) and accumulates into that above.
    """
    node = nodes.get((lo, hi))
    if node is not None:
        return node, False
    if hi - lo == 1:
        raise ValueError(f"no partial covers rank {lo}")
    mid = _split(lo, hi)
    left, left_owned = _fold(nodes, lo, mid, out)
    right, _ = _fold(nodes, mid, hi)
    if left_owned:
        np.add(left, right, out=left)
        return left, True
    return np.add(left, right, out=out), True


def tree_sum(bufs: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Canonical-tree FP32 fold into one buffer the inputs never alias:
    ``out`` when given (the caller's persistent buffer), else a freshly
    allocated one.

    The summation tree is the contiguous balanced binary tree over the
    rank indices with the left-heavy split of :func:`_split`; for one,
    two or three buffers it coincides with the plain left fold.  IEEE
    adds are not associative, so pinning *this* tree (rather than a left
    fold, whose shape depends on who folds) is what keeps every
    realisation -- direct, recursive-halving ring, hierarchical
    worker fold -- bitwise identical.
    """
    if not bufs:
        raise ValueError("need at least one buffer")
    return sum_canonical_partials({(i, i + 1): b for i, b in enumerate(bufs)}, len(bufs), out)


def canonical_range_nodes(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Maximal canonical-tree nodes covering ``[lo, hi)`` within a tree
    over ``size`` ranks.

    Any contiguous rank range decomposes into O(log size) complete
    subtrees of the canonical tree; a process-backend worker computes
    exactly these partials for its rank slice, ships them once, and every
    worker then finishes the identical upper tree from everyone's
    partials (:func:`sum_canonical_partials`).
    """
    if not 0 <= lo < hi <= size:
        raise ValueError(f"range [{lo}, {hi}) invalid for {size} ranks")

    def rec(nlo: int, nhi: int) -> list[tuple[int, int]]:
        if nlo >= hi or nhi <= lo:
            return []
        if lo <= nlo and nhi <= hi:
            return [(nlo, nhi)]
        mid = _split(nlo, nhi)
        return rec(nlo, mid) + rec(mid, nhi)

    return rec(0, size)


def canonical_node_partials(
    bufs: list[np.ndarray], lo: int, hi: int, size: int
) -> dict[tuple[int, int], np.ndarray]:
    """Per-node partial sums of ``bufs`` (indexed ``lo..hi-1``) for the
    maximal canonical nodes of ``[lo, hi)``.  Single-rank nodes hand back
    the input buffer itself (no copy); larger nodes allocate their sum.
    """
    if len(bufs) != hi - lo:
        raise ValueError(f"expected {hi - lo} buffers for [{lo}, {hi}), got {len(bufs)}")
    leaves = {(lo + i, lo + i + 1): b for i, b in enumerate(bufs)}
    return {node: _fold(leaves, *node)[0] for node in canonical_range_nodes(lo, hi, size)}


def sum_canonical_partials(
    partials: dict[tuple[int, int], np.ndarray],
    size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Complete the canonical tree over ``size`` ranks from node partials.

    ``partials`` must cover every rank exactly once via canonical nodes
    (the union of every worker's :func:`canonical_node_partials`).  The
    result is ``out`` or freshly allocated, never a partial -- safe even
    when the partials are read-only shared-memory views with a bounded
    lifetime.  Into ``out``, flat buffers fold :data:`FOLD_BLOCK`
    elements at a time (element-wise adds: the same bits in any blocking).
    """
    if out is None:
        total, owned = _fold(partials, 0, size)
        return total if owned else np.array(total, copy=True)
    if all(p.ndim == 1 and p.shape == out.shape for p in partials.values()):
        blocks = [slice(at, at + FOLD_BLOCK) for at in range(0, out.size, FOLD_BLOCK)]
    else:
        blocks = [slice(None)]
    for block in blocks:
        total, owned = _fold({k: p[block] for k, p in partials.items()}, 0, size, out[block])
        if not owned:
            np.copyto(out[block], total)
    return out


def allreduce_sum(bufs: list[np.ndarray]) -> list[np.ndarray]:
    """Every rank receives the element-wise sum of all rank buffers.

    All ranks share one result buffer (see the module aliasing note)."""
    _check_same_shapes(bufs)
    total = tree_sum(bufs)
    return [total for _ in bufs]


def reduce_scatter_sum(bufs: list[np.ndarray]) -> list[np.ndarray]:
    """Rank r receives the r-th chunk of the element-wise sum.

    Chunks follow ``np.array_split`` over the first axis (uneven sizes
    allowed, like MPI_Reduce_scatter with counts); they are views into
    one shared sum buffer (see the module aliasing note).
    """
    _check_same_shapes(bufs)
    return list(np.array_split(tree_sum(bufs), len(bufs), axis=0))


def allgather_concat(chunks: list[np.ndarray]) -> list[np.ndarray]:
    """Every rank receives the concatenation of all rank chunks.

    ``np.concatenate`` already materialises a fresh buffer; all ranks
    share it (see the module aliasing note)."""
    if not chunks:
        raise ValueError("need at least one rank chunk")
    full = np.concatenate(chunks, axis=0)
    return [full for _ in chunks]


def alltoall_exchange(send: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
    """Personalised all-to-all: ``recv[j][i] = send[i][j]``.

    ``send[i]`` is rank i's list of R messages (one per destination).
    """
    r = len(send)
    for i, msgs in enumerate(send):
        if len(msgs) != r:
            raise ValueError(f"rank {i} must send exactly {r} messages, got {len(msgs)}")
    return [[send[i][j].copy() for i in range(r)] for j in range(r)]


def scatter_chunks(chunks: list[np.ndarray], root: int) -> list[np.ndarray]:
    """Root-scatter: rank r receives ``chunks[r]`` (held by ``root``)."""
    if not 0 <= root < len(chunks):
        raise ValueError(f"root {root} out of range for {len(chunks)} ranks")
    return [c.copy() for c in chunks]


def gather_chunks(chunks: list[np.ndarray], root: int) -> list[np.ndarray]:
    """Root-gather: the root receives every rank's chunk (list in rank
    order); non-roots receive nothing (the return value is the root's)."""
    if not 0 <= root < len(chunks):
        raise ValueError(f"root {root} out of range for {len(chunks)} ranks")
    return [c.copy() for c in chunks]


def allreduce_via_rs_ag(bufs: list[np.ndarray]) -> list[np.ndarray]:
    """Allreduce composed exactly as the paper overlaps it: a
    reduce-scatter followed by an allgather (Fig. 2).  Semantically equal
    to :func:`allreduce_sum`; kept separate so tests can pin the
    composition."""
    scattered = reduce_scatter_sum(bufs)
    return allgather_concat(scattered)
