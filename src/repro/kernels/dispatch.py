"""Where a kernel tier is chosen: the only place.

Seven operators have two implementations -- C loops behind ``ctypes``
(:mod:`repro.kernels.native`) and NumPy formulations
(:mod:`repro.kernels.segment`, :mod:`repro.kernels.rows`,
:mod:`repro.kernels.synth`) -- with the same bits, the row operators'
held to :mod:`repro.kernels.reference`.  Each function
below offers its arguments to the native entry, which either does the
whole job or touches nothing (no library in this process, or arrays it
cannot represent: another dtype, a strided view, an id out of range);
then the NumPy tier gets the same arguments.  The tier is a property of
the process and of the arrays, never an option: callers in ``core``
and ``data`` import these and cannot tell which one ran.
"""

from __future__ import annotations

from repro.kernels import native, rows, segment, synth


def scatter_add_exact(weight, indices, deltas, value_rows=None) -> None:
    """``weight[indices] += deltas`` (look-up ``i`` adds
    ``deltas[value_rows[i]]`` when given), duplicates folding in input
    order: the bits of :func:`repro.kernels.reference.scatter_add`."""
    if not native.scatter_add_exact(weight, indices, deltas, value_rows):
        segment.scatter_add_exact(weight, indices, deltas, value_rows)


def pool_rows(source, indices, offsets, lengths, scratch):
    """Alg. 1 on checked look-ups: ``Y[b]`` sums bag ``b``'s rows of
    ``source`` (FP32 rows, or Split-BF16 hi halves widened) from +0.0;
    ``lengths`` and ``scratch`` serve the NumPy tier's blocked gather."""
    out = native.pool_rows(source, indices, offsets)
    return rows.pool_rows(source, indices, offsets, lengths, scratch) if out is None else out


def split_scatter_add(hi, lo, keep_bits, indices, deltas, value_rows=None) -> None:
    """The scatter-add on a Split-BF16 table: each touched row's deltas
    aggregate from +0.0 in input order and meet ``hi || lo`` in one FP32
    add."""
    if not native.split_scatter_add(hi, lo, keep_bits, indices, deltas, value_rows):
        rows.split_scatter_add(hi, lo, keep_bits, indices, deltas, value_rows)


def sgd_step(values, grads, lr, scratch) -> None:
    """``values -= lr * grads`` on a span of a dense slab (``scratch``:
    the NumPy tier's block-sized temporary)."""
    if not native.sgd_step(values, grads, lr):
        rows.descend(values, grads, lr, scratch)


def split_sgd_step(values, lo, grads, lr, keep_bits, scratch) -> None:
    """Split-SGD on a span: rejoin ``values || lo``, step, split."""
    if not native.split_sgd_step(values, lo, grads, lr, keep_bits):
        rows.split_sgd_step(values, lo, grads, lr, keep_bits, scratch)


def zipf_ids(x, n_items, scramble):
    """Ids on ``[0, n_items)`` from float64 draws ``x`` of the power law
    on ``[1, n_items]``: rank ``trunc(x) - 1`` clamped, then scrambled."""
    ids = native.zipf_ids(x, n_items, scramble)
    return synth.zipf_ids(x, n_items, scramble) if ids is None else ids


def teacher_bags(ids, offsets, mix, seed_mult, weight, score) -> None:
    """``score[b] += weight * (bag b's hashed effects folded from +0.0 in
    input order) / max(len, 1)``: the teacher's term for one table."""
    if not native.teacher_bags(ids, offsets, mix, seed_mult, weight, score):
        synth.teacher_bags(ids, offsets, mix, seed_mult, weight, score)
