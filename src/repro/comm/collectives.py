"""The canonical summation tree over per-rank NumPy buffers.

Every cross-rank sum of a training step -- a gradient bucket's
allreduce, realised by ``reduce_map`` on the thread pool and by the
hierarchical shared-memory fold of the process backend
(:mod:`repro.exec.mp`) -- combines partial sums at the nodes of one
*canonical summation tree* (see :func:`tree_sum`), a pure function of
the rank count.  Each realisation therefore produces the same FP32 bits
at any worker count, which is what lets the distributed == single-socket
equivalence tests demand bitwise reproducibility
(``tests/comm/test_ring.py`` holds the direct fold and the worker-partial
fold to a step-by-step recursive-halving ring written as their oracle).
Nothing here knows about time -- the simulated cluster charges cost
separately -- and the embedding exchange moves its bytes in
:mod:`repro.comm.strategies`.

Inputs are never modified; the sum lands in the caller's ``out`` or in
one freshly allocated buffer.
"""

from __future__ import annotations

import numpy as np


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
