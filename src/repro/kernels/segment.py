"""Sort-based segment kernels for the sparse embedding hot path.

The embedding forward/backward/update passes all reduce to one primitive:
*sum value rows into segments keyed by a row id*.  The naive NumPy
spelling is ``np.add.at`` -- an unbuffered per-element scatter that is
correct but executes one indexed add at a time.  These kernels replace it
with two steps, the tile-the-gather-scatter restructuring HEAT applies
to CPU embedding kernels:

* :func:`plan_segments` sorts the **composite keys**
  ``(row << bits) | position``.  The keys are unique, so one plain
  in-place ``int64`` sort is a stable sort of the rows, and the sort
  permutation and the sorted rows are read back with a mask and a shift.
* :func:`_fold` is a **length-ordered left fold**.  It orders the
  segments by run length, so that "has a ``k``-th contribution" is a
  prefix of the order, and walks them in cache-sized blocks: gather the
  block's current rows into a contiguous accumulator, add the first,
  second, ... contribution of every segment that has one (contiguous
  slices: no fancy indexing, no reduction pass), write the rows back.
  Most runs of a skewed batch end within the first few positions; the
  remainder of the few long ones folds on in
  ``ceil(log2(longest run))`` binary rounds (:func:`_fold_long_runs`).
  Every contribution is gathered exactly once.

Bit-identity contract
---------------------
Every optimized kernel reproduces the exact FP32 result of its
``np.add.at`` reference formulation, not just an allclose approximation.
This works because of two NumPy facts (pinned by the test suite):

* ``np.add.at`` applies updates element-by-element in array order, so the
  value a row ends with is a *sequential left fold* of its contributions
  in their original order, started from the row's current value.
* Summing a 3-D array over a **strided** (non-innermost) axis --
  ``buf[B, L, E].sum(axis=1)`` with ``E >= 2`` -- is also a sequential
  left fold over ``L``: NumPy's pairwise summation only engages when the
  reduction runs along the contiguous innermost axis.

A stable sort keeps duplicate keys in their original order, so the sorted
run of a row lists its contributions ``d1, d2, ...`` as ``np.add.at``
meets them.  The fold keeps the partial result ``a`` -- the current
weight row for an in-place scatter (``W[i] += d``), zero for an
aggregation -- as a stored FP32 row and only ever computes
``a + d_next`` with the run's next contribution: one position at a time
for the head of the run, and for a long run's tail in consecutive pieces
of ``2**r`` contributions, one per set bit of the remaining length,
where a round overwrites the first contribution of its piece with
``a + d_first`` and sums the piece left to right.  Every addition has
the operands, in the order, that ``np.add.at`` gives it, and a partial
that waits in memory between passes is the same FP32 value it would
have been in a register.  The chain ``((w + d1) + d2) + ...`` is
therefore unchanged, whatever the piece sizes.  The one shape that
cannot be expressed this way is ``E == 1`` (the reduction axis becomes
contiguous and pairwise summation changes the bits); those fall back to
the reference formulation.

The naive formulations themselves live in :mod:`repro.kernels.reference`:
the oracle for tests and for ``benchmarks/bench_hotpath.py``, and the
``E == 1`` fallback here.

Thread parallelism
------------------
When the process-wide :class:`~repro.exec.pool.WorkerPool` is wider than
one thread, a large fold gives each worker a contiguous range of
segments holding a balanced share of the contributions, and every worker
runs the same fold on its range.  Ranges own disjoint destination rows
and no segment is split, so every segment is folded exactly as in the
sequential kernel and the parallel result is bitwise the sequential one
(pinned by ``tests/kernels/test_parallel_kernels.py``).  The thresholds
below keep small and medium folds sequential: these kernels are
random-access memory-bound, so sharding pays only once per-worker
payloads reach megabytes (and arithmetic density is high, e.g. wide
rows); the coarser rank-level parallelism of
:mod:`repro.parallel.hybrid` is the layer that wins on typical shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import reference

_INT64_MAX = np.iinfo(np.int64).max

#: Minimum shardable items (segments/bags) before threads engage.
PARALLEL_MIN_SEGMENTS = 256
#: Minimum total float32 elements folded before threads engage.  Folds
#: are memory-bound with GIL-held index bookkeeping between the big
#: GIL-free gathers, so sharding only pays once each worker's range
#: carries megabytes of payload; below this the sequential kernel wins
#: and the pool is better spent one level up, on whole ranks.
PARALLEL_MIN_ELEMS = 1 << 21
#: Float32 elements one long-run round gathers at a time (512 KiB): the
#: sum reads the block back while it is still in the core's cache, and
#: the buffer is small enough for malloc to recycle instead of
#: ``mmap``-ing and page-faulting a fresh one per round.
_BLOCK_ELEMS = 1 << 17
#: Contributions of a segment the fold adds position by position before
#: the rest of a run goes to the binary rounds.  Swept 2..64 on
#: Zipf-1.05 look-ups (131 072 into 8 x 50 000 rows, a fresh batch per
#: call): 32 is 7 % ahead of 8 and level with 64; over nine tenths of
#: the runs end by 4, and a position costs three calls on a prefix that
#: keeps shrinking.  Uniform look-ups do not care.
_HEAD = 32
#: Float32 elements of one block's accumulator (128 KiB, and as much
#: scratch): both stay in L2 across the block's passes (swept 2^14..2^18).
_SEGMENT_BLOCK_ELEMS = 1 << 15


def resolve_pool(pool):
    if pool is not None:
        return pool
    from repro.exec.pool import get_pool  # lazy: keeps kernels import-light

    return get_pool()


def shardable(pool, items: int, elems: int) -> bool:
    return (
        pool.effective_workers > 1
        and items >= PARALLEL_MIN_SEGMENTS
        and elems >= PARALLEL_MIN_ELEMS
    )


def _take_rows(src: np.ndarray, flat_idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gather ``src[flat_idx]`` into the preallocated 2-D ``out``.

    ``np.take(..., out=..., mode="clip")`` hits NumPy's no-buffering fast
    path: it is markedly faster than fancy indexing *and* releases the
    GIL, which plain advanced indexing never does -- the property the
    thread-sharded kernels and the parallel-rank trainer stand on.  The
    gathered bits are identical either way; ``mode="clip"`` only changes
    the (never exercised) out-of-range behaviour, since every caller's
    indices are pre-validated or plan-derived.
    """
    return np.take(src, flat_idx, axis=0, out=out, mode="clip")


@dataclass(frozen=True)
class SegmentPlan:
    """Grouping of a flat index vector into sorted, contiguous segments.

    ``order`` is a *stable* sort permutation: ``indices[order]`` is
    non-decreasing and ties keep their original order (the property the
    bit-identity contract rests on).  Segment ``j`` covers sorted
    positions ``[starts[j], starts[j] + lengths[j])`` and holds every
    occurrence of row ``uniq[j]``.
    """

    order: np.ndarray  # (NS,) int64: stable sort permutation
    sorted_rows: np.ndarray  # (NS,) int64: indices[order]
    uniq: np.ndarray  # (U,) int64: distinct rows, ascending
    starts: np.ndarray  # (U,) int64: segment starts in sorted order
    lengths: np.ndarray  # (U,) int64: segment lengths (all >= 1)


def plan_segments(indices: np.ndarray) -> SegmentPlan:
    """Stable-sort ``indices`` and delimit its duplicate runs.

    Sorts the composite keys ``(row << bits) | position``: the keys are
    unique, so one plain in-place ``int64`` sort orders them exactly as
    a stable sort orders the rows, and ``order`` / ``sorted_rows`` are
    read back with a mask and a shift.  Ids that leave no room for the
    position bits (negative, or ``>= 2**(62 - bits)``) take the stable
    ``argsort``; both spellings produce the same plan.
    """
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ValueError("indices must be 1-D")
    nnz = indices.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if nnz == 0:
        return SegmentPlan(empty, empty, empty, empty, empty)
    bits = max(1, (nnz - 1).bit_length())
    if indices.min() >= 0 and indices.max() < (1 << (62 - bits)):
        sorted_rows = indices << bits
        sorted_rows |= np.arange(nnz)
        sorted_rows.sort()
        order = sorted_rows & ((1 << bits) - 1)
        sorted_rows >>= bits
    else:
        order = np.argsort(indices, kind="stable")
        sorted_rows = indices[order]
    newseg = np.empty(nnz, dtype=bool)
    newseg[0] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=newseg[1:])
    starts = np.flatnonzero(newseg)
    uniq = sorted_rows[starts]
    lengths = np.diff(np.append(starts, nnz))
    return SegmentPlan(order, sorted_rows, uniq, starts, lengths)


def _fold_long_runs(
    values: np.ndarray,
    rowmap: np.ndarray | None,
    first: np.ndarray,
    lengths: np.ndarray,
    acc: np.ndarray,
) -> None:
    """``acc[j] = ((acc[j] + c0) + c1) + ...`` over run ``j``, in place.

    The tail of :func:`_fold_range` for the few runs longer than
    ``_HEAD``: a binary-decomposed left fold.  Run ``j`` holds the
    contributions ``values[rowmap[p]]`` (``values[p]`` when ``rowmap``
    is None) for ``p`` in ``[first[j], first[j] + lengths[j])``.  Round
    ``r`` serves every run whose length has bit ``2**r`` set: it gathers
    that run's next ``2**r`` contributions (the ones after the
    ``lengths & (2**r - 1)`` already folded by lower rounds), adds the
    stored accumulator into the first of them and sums the block over
    its strided axis -- a sequential left fold that starts from the FP32
    partial of the previous rounds.  ``initial=-0.0`` is the exact
    identity of IEEE addition (the default ``+0.0`` would turn an all
    ``-0.0`` row positive).  A round runs in blocks of whole runs,
    ``_BLOCK_ELEMS`` elements each, which changes no run's fold.
    """
    e = values.shape[1]
    for r in range(int(lengths.max()).bit_length()):
        step = 1 << r
        sel = np.flatnonzero(lengths & step)
        start = first[sel] + (lengths[sel] & (step - 1))
        within = np.arange(step)
        per_block = max(1, _BLOCK_ELEMS // (step * e))
        for lo in range(0, sel.shape[0], per_block):
            segs = sel[lo : lo + per_block]
            k = segs.shape[0]
            flat_idx = (start[lo : lo + per_block, None] + within).reshape(-1)
            if rowmap is not None:
                flat_idx = np.take(rowmap, flat_idx, mode="clip")
            block = np.empty((k, step, e), dtype=values.dtype)
            _take_rows(values, flat_idx, block.reshape(k * step, e))
            head = block[:, 0]
            np.add(acc[segs], head, out=head)
            acc[segs] = block.sum(axis=1, initial=-0.0)


def _fold_range(
    values: np.ndarray,
    rowmap: np.ndarray | None,
    starts: np.ndarray,
    lengths: np.ndarray,
    dst: np.ndarray,
    dst_rows: np.ndarray,
) -> None:
    """``dst[dst_rows[j]] = ((dst[dst_rows[j]] + c0) + c1) + ...`` over
    segment ``j``, in place: the length-ordered left fold.

    Segment ``j`` holds the contributions ``values[rowmap[p]]``
    (``values[p]`` when ``rowmap`` is None) for ``p`` in
    ``[starts[j], starts[j] + lengths[j])``.  The segments are put in
    descending order of ``min(length, _HEAD + 1)`` (stable, so equally
    long runs keep ascending rows), which makes "has more than ``k``
    contributions" a prefix of the order for every ``k <= _HEAD``.  They
    are then walked in blocks of ``_SEGMENT_BLOCK_ELEMS`` accumulator
    elements; a block

    1. gathers its current ``dst`` rows into a contiguous accumulator,
    2. for ``k < _HEAD`` takes the ``k``-th contribution of every
       segment that has one into a contiguous scratch and adds it:
       ``acc[:n] += scratch[:n]`` -- plain slices, no fancy indexing,
       and nothing further for the runs that end there (most do),
    3. hands what is left of the runs longer than ``_HEAD`` to
       :func:`_fold_long_runs`, which keeps folding into the same rows,
    4. writes the rows back.

    Every addition is ``accumulator + next contribution`` in the
    segment's own order, so the chain of roundings is ``np.add.at``'s.
    Zero-length segments keep their ``dst`` row.
    """
    e = values.shape[1]
    # 0 for the runs longer than _HEAD, ..., _HEAD for one contribution,
    # _HEAD + 1 for none; uint8 keys sort in one radix pass.
    key = (_HEAD + 1 - np.minimum(lengths, _HEAD + 1)).astype(np.uint8)
    by_length = np.argsort(key, kind="stable")
    # live[k]: how many segments have more than k contributions.
    live = np.cumsum(np.bincount(key, minlength=_HEAD + 2))[_HEAD::-1].tolist()
    first = starts[by_length]
    rows = dst_rows[by_length]
    tail = lengths[by_length[: live[_HEAD]]] - _HEAD
    per_block = max(1, _SEGMENT_BLOCK_ELEMS // e)
    acc_buf = np.empty((min(per_block, live[0]), e), dtype=values.dtype)
    scratch = np.empty_like(acc_buf)
    for lo in range(0, live[0], per_block):
        hi = min(lo + per_block, live[0])
        acc = _take_rows(dst, rows[lo:hi], acc_buf[: hi - lo])
        for k in range(_HEAD):
            n = min(live[k], hi) - lo
            if n <= 0:
                break
            idx = first[lo : lo + n] + k
            if rowmap is not None:
                idx = np.take(rowmap, idx, mode="clip")
            np.add(acc[:n], _take_rows(values, idx, scratch[:n]), out=acc[:n])
        n = min(live[_HEAD], hi) - lo
        if n > 0:
            _fold_long_runs(
                values, rowmap, first[lo : lo + n] + _HEAD, tail[lo : lo + n], acc[:n]
            )
        dst[rows[lo:hi]] = acc


def _fold(
    values: np.ndarray,
    rowmap: np.ndarray | None,
    starts: np.ndarray,
    lengths: np.ndarray,
    dst: np.ndarray,
    dst_rows: np.ndarray | None = None,
    pool=None,
) -> None:
    """Left-fold each segment of ``values[rowmap]`` into its ``dst`` row.

    The one fold every kernel below goes through.  ``rowmap[p]`` names
    the ``values`` row holding the ``p``-th sorted contribution, which
    lets callers feed either pre-permuted per-lookup values
    (``rowmap = plan.order``) or shared per-bag gradients
    (``rowmap = bag_ids[plan.order]``) without materialising the
    expanded ``(NS, E)`` array; ``rowmap=None`` folds contiguous bags of
    ``values`` itself.  Segment ``j`` folds into ``dst[dst_rows[j]]``
    (``dst[j]`` when ``dst_rows`` is None) starting from the row's
    current value: the weight row for an in-place ``W[i] += d`` scatter,
    zero for an aggregation -- exactly like ``np.add.at``.  ``dst_rows``
    must be distinct; ``dst`` may sit on a file mapping (a tiered
    model's slab).

    Large folds give each pool worker a contiguous segment range holding
    a balanced share of the contributions and run the same
    :func:`_fold_range` on it: ranges own disjoint ``dst`` rows and no
    segment is split, so the parallel result is bitwise the sequential
    one.
    """
    u = starts.shape[0]
    if u == 0:
        return
    if dst_rows is None:
        dst_rows = np.arange(u)
    pool = resolve_pool(pool)
    total = int(lengths.sum())
    bounds = [0, u]
    if shardable(pool, u, total * values.shape[1]):
        shards = pool.effective_workers
        cuts = np.searchsorted(
            np.cumsum(lengths), (total * np.arange(1, shards)) // shards
        )
        bounds = [0, *cuts.tolist(), u]

    def fold_range(lo_hi: tuple[int, int]) -> None:
        part = slice(*lo_hi)
        _fold_range(values, rowmap, starts[part], lengths[part], dst, dst_rows[part])

    pool.map(fold_range, list(zip(bounds[:-1], bounds[1:])))


# -- contiguous (bag-pooled) segments ---------------------------------------


def segment_sum_ragged(rows: np.ndarray, offsets: np.ndarray, pool=None) -> np.ndarray:
    """Sum already-contiguous segments ``rows[offsets[n]:offsets[n+1]]``.

    The pooled forward pass (Alg. 1) for ragged bags: :func:`_fold` over
    ``rows`` itself (``rowmap=None``), starting from zeroed output rows.
    Large batches shard their bags over the worker pool (disjoint output
    rows, identical per-bag folds).  Bit-identical to
    :func:`repro.kernels.reference.segment_sum`; empty bags yield zero rows.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = offsets.shape[0] - 1
    e = rows.shape[1]
    if e == 1:  # contiguous reduction axis: pairwise summation differs
        return reference.segment_sum(rows, offsets)
    out = np.zeros((n, e), dtype=np.float32)
    if n == 0 or rows.shape[0] == 0:
        return out
    lengths = np.diff(offsets)
    pool = resolve_pool(pool)
    if lengths.min() == lengths.max() and not shardable(pool, n, rows.shape[0] * e):
        # Equal-length bags are one reshape away from a single sum.
        out[...] = rows.reshape(n, int(lengths[0]), e).sum(axis=1, dtype=np.float32)
        return out
    _fold(rows, None, offsets[:-1], lengths, out, pool=pool)
    return out


# -- duplicate aggregation ---------------------------------------------------


def _rowmap(plan: SegmentPlan, value_rows: np.ndarray | None) -> np.ndarray:
    """Which ``values`` row holds each sorted contribution: look-up ``i``
    contributes ``values[i]``, or ``values[value_rows[i]]`` when the
    values are shared (one row per bag, say)."""
    if value_rows is None:
        return plan.order
    return np.take(np.asarray(value_rows, dtype=np.int64), plan.order, mode="clip")


def aggregate_duplicates(
    indices: np.ndarray,
    values: np.ndarray,
    value_rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(unique_rows, folded_sums): duplicates folded in original order.

    Look-up ``i`` contributes ``values[i]``; with ``value_rows`` it
    contributes ``values[value_rows[i]]`` -- bag-level gradients, one row
    per bag -- and the expanded ``(NS, E)`` array (``np.repeat`` in the
    naive backward) is never materialised.  Bit-identical to
    :func:`repro.kernels.reference.aggregate_duplicates` (the
    ``np.unique`` + ``np.add.at`` spelling) on the expanded values.
    """
    values = np.ascontiguousarray(values, dtype=np.float32)
    if values.shape[1] == 1:
        expanded = values if value_rows is None else values[np.asarray(value_rows)]
        return reference.aggregate_duplicates(indices, expanded)
    plan = plan_segments(indices)
    sums = np.zeros((plan.uniq.shape[0], values.shape[1]), dtype=np.float32)
    _fold(values, _rowmap(plan, value_rows), plan.starts, plan.lengths, sums)
    return plan.uniq, sums


# -- in-place scatter-add ----------------------------------------------------


def scatter_add_exact(
    weight: np.ndarray,
    indices: np.ndarray,
    deltas: np.ndarray,
    value_rows: np.ndarray | None = None,
) -> None:
    """``weight[indices] += deltas`` with duplicates folding in order.

    Look-up ``i`` adds ``deltas[i]``; with ``value_rows`` it adds
    ``deltas[value_rows[i]]``, read straight from the small shared array
    (bag-level gradients: cache-resident for any realistic minibatch,
    which is where the fused backward+update earns its keep on
    duplicate-heavy tables).  Bit-identical to ``np.add.at`` of the
    expanded deltas (:func:`repro.kernels.reference.scatter_add`): each
    touched row is rewritten as the left fold of (current row, then its
    deltas in original order).
    """
    deltas = np.ascontiguousarray(deltas, dtype=weight.dtype)
    if weight.shape[1] == 1:
        expanded = deltas if value_rows is None else deltas[np.asarray(value_rows)]
        reference.scatter_add(weight, indices, expanded)
        return
    plan = plan_segments(indices)
    _fold(deltas, _rowmap(plan, value_rows), plan.starts, plan.lengths, weight, plan.uniq)


# -- thread-range bucketing --------------------------------------------------


def bucket_by_row_ranges(indices: np.ndarray, rows: int, threads: int) -> np.ndarray:
    """Per-thread update counts under Alg. 4's static row partition.

    Thread ``t`` owns rows ``[rows*t // threads, rows*(t+1) // threads)``,
    so row ``i`` belongs to the last ``t`` with ``rows*t < (i+1)*threads``:
    ``((i + 1) * threads - 1) // rows``.  That closed form plus one
    ``bincount`` replaces the ``threads`` full-array mask scans of the
    naive race-free update.  Returns an ``(threads,)`` int64 count
    vector identical to what the mask scans produce.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if rows * threads > _INT64_MAX:
        raise ValueError("rows * threads must fit in int64")
    indices = np.asarray(indices, dtype=np.int64)
    counts = np.bincount(((indices + 1) * threads - 1) // rows, minlength=threads)
    if counts.shape[0] != threads:
        raise IndexError("indices out of range")
    return counts.astype(np.int64, copy=False)
