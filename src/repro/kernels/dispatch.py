"""Where a kernel tier is chosen: the only place.

Nine operators have two implementations -- C loops behind ``ctypes``
(:mod:`repro.kernels.native`) and NumPy formulations
(:mod:`repro.kernels.rows`, :mod:`repro.kernels.synth`,
:mod:`repro.kernels.interaction`) -- with the same bits, the row
operators' those of :mod:`repro.kernels.reference` (whose ``np.add.at``
spellings the NumPy tier runs) and the interaction's those of BLAS.
Each function below offers its arguments to the native entry, which
either does the whole job or touches nothing
(no library in this process, arrays it cannot represent: another dtype,
a strided view, an id out of range -- or, for the interaction, a host
whose BLAS computes other bits); then the NumPy tier gets the same
arguments.  The tier is a property of the process and of the arrays,
never an option: callers in ``core`` and ``data`` import these and
cannot tell which one ran.
"""

from __future__ import annotations

from repro.kernels import interaction, native, rows, synth


def scatter_add_exact(weight, indices, deltas, value_rows=None) -> None:
    """``weight[indices] += deltas`` (look-up ``i`` adds
    ``deltas[value_rows[i]]`` when given), duplicates folding in input
    order: the bits of :func:`repro.kernels.reference.scatter_add`."""
    if not native.scatter_add_exact(weight, indices, deltas, value_rows):
        rows.scatter_add(weight, indices, deltas, value_rows)


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


def dot_interaction(dense, embs, z=None):
    """The dot interaction: ``[dense | z_i . z_j for i > j]`` per sample
    over ``Z = [dense, *embs]``, written into ``z`` when given (the state
    its backward reads)."""
    out = native.dot_interaction(dense, embs, z)
    return interaction.interact(dense, embs, z) if out is None else out


def dot_interaction_backward(z, dout):
    """``(ddense, dembs)`` from the stacked ``z`` and the gradient of the
    output: every table's gradient in one ``(S, N, E)`` block."""
    grads = native.dot_interaction_backward(z, dout)
    return interaction.interact_backward(z, dout) if grads is None else grads


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
