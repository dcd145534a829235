"""Row operators of the embedding and optimizer hot path: the NumPy tier.

Array-level, like :mod:`repro.kernels.reference`: nothing here knows
about tables or optimizers.  These are the portable formulations of the
operators that also have a C twin in :mod:`repro.kernels.native` -- the
scatter-add, the pooled forward over FP32 or Split-BF16 rows, the
Split-BF16 row update, the dense SGD and Split-SGD steps -- and
:mod:`repro.kernels.dispatch` is where one of the two is chosen.  The
sparse ones are the ``np.add.at`` spellings of
:mod:`repro.kernels.reference` themselves, cut into blocks that bound
their temporaries; the C loops produce the same bits, faster.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import reference
from repro.kernels.workspace import Workspace

#: Float32 elements the pooled forward and the scatter handle at a time
#: (512 KiB): the forward gathers this much and reduces it while it is
#: still in L2, instead of writing the whole ``(NS, E)`` gather out to
#: L3 and re-reading it (swept 64 KiB .. 2 MiB at 131 072 look-ups x
#: E64); the scatter expands no more shared deltas than this at once.
_BLOCK_ELEMS = 1 << 17


# -- Split-BF16 halves --------------------------------------------------------


def lo_mask(keep_bits: int) -> np.uint16:
    """Mask of the ``keep_bits`` MSBs of a low half."""
    if not 0 <= keep_bits <= 16:
        raise ValueError(f"keep_bits must be in [0, 16], got {keep_bits}")
    return np.uint16(((1 << keep_bits) - 1) << (16 - keep_bits))


def split_fp32_into(x: np.ndarray, lo: np.ndarray, keep_bits: int = 16) -> None:
    """The 16 LSBs of C-contiguous FP32 ``x`` move into ``lo`` (same
    shape, ``uint16``; only its ``keep_bits`` MSBs are kept) and ``x``
    keeps its hi half, a BF16 number widened: ``split_fp32`` +
    ``truncate_lo_bits`` of :mod:`repro.core.bf16` without a temporary."""
    bits = x.view(np.uint32)
    np.copyto(lo, bits, casting="unsafe")  # uint32 -> uint16 keeps the LSBs
    if keep_bits != 16:
        np.bitwise_and(lo, lo_mask(keep_bits), out=lo)
    np.bitwise_and(bits, np.uint32(0xFFFF0000), out=bits)


def take_halves(
    hi: np.ndarray, lo: np.ndarray | None, rows: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``hi[rows]`` (and ``lo[rows]`` unless ``lo`` is None) assembled as
    FP32 bit patterns in one ``uint32`` buffer (``out``'s memory when
    given); also returns the ``uint16`` staging buffer the halves were
    gathered through, for reuse."""
    half = np.empty((rows.shape[0], hi.shape[1]), dtype=np.uint16)
    if out is None:
        out = np.empty(half.shape, dtype=np.float32)
    bits = out.view(np.uint32)
    np.copyto(bits, np.take(hi, rows, axis=0, out=half, mode="clip"))
    np.left_shift(bits, 16, out=bits)
    if lo is not None:
        np.bitwise_or(bits, np.take(lo, rows, axis=0, out=half, mode="clip"), out=bits)
    return bits, half


# -- scatter-add (Alg. 3) -------------------------------------------------------


def scatter_add(
    weight: np.ndarray,
    indices: np.ndarray,
    deltas: np.ndarray,
    value_rows: np.ndarray | None = None,
) -> None:
    """``weight[indices] += deltas``: :func:`repro.kernels.reference.scatter_add`
    on the look-ups' deltas (``deltas[value_rows[i]]`` for look-up ``i``
    when given), ``_BLOCK_ELEMS`` elements of them at a time.  ``np.add.at``
    adds in array order, so consecutive blocks give the one-shot call's
    bits, and shared bag-level deltas are never expanded to ``(NS, E)``."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ValueError("indices must be 1-D")
    deltas = np.ascontiguousarray(deltas, dtype=weight.dtype)
    step = max(1, _BLOCK_ELEMS // max(1, weight.shape[1]))
    for lo in range(0, indices.shape[0], step):
        part = slice(lo, lo + step)
        block = deltas[part] if value_rows is None else deltas[value_rows[part]]
        reference.scatter_add(weight, indices[part], block)


# -- gather and pooled forward (Alg. 1) ---------------------------------------


def gather_rows(source: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows of pre-checked ``indices`` into FP32 ``out``: of an FP32
    table, or of the ``uint16`` hi half of a Split-BF16 one, widened
    (forward/backward read only the BF16 half: 2x less bandwidth).
    ``np.take(..., out=..., mode="clip")`` is bitwise the fancy-indexing
    result, but on NumPy's no-buffering fast path -- faster, and it
    releases the GIL so parallel ranks' lookups overlap."""
    if source.dtype == np.uint16:
        take_halves(source, None, indices, out=out)
        return out
    return np.take(source, indices, axis=0, out=out, mode="clip")


def pool_rows(
    source: np.ndarray,
    indices: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    scratch: Workspace,
) -> np.ndarray:
    """``Y[n] = sum over bag n of source[indices[s]]`` on checked inputs.

    Equal-length bags -- every batch the datasets and the serving path
    build -- are pooled chunk by chunk: gather at most ``_BLOCK_ELEMS``
    elements into ``scratch``'s buffer and reduce them over the strided
    bag axis (a left fold from +0.0, the order of ``np.add.at``) straight
    into the output rows, so the ``(NS, E)`` gather never exists.
    ``scratch`` belongs to the caller: ranks pool concurrently on the
    thread pool, each through its own.  Ragged bags, and ``E == 1``
    (where the bag axis is contiguous and NumPy would sum it pairwise),
    gather whole and go through
    :func:`repro.kernels.reference.segment_sum`.
    """
    n, dim = lengths.shape[0], source.shape[1]
    p = int(lengths[0]) if n else 0
    if p == 0 or dim == 1 or (lengths != p).any():
        rows = np.empty((indices.shape[0], dim), dtype=np.float32)
        return reference.segment_sum(gather_rows(source, indices, rows), offsets)
    out = np.empty((n, dim), dtype=np.float32)
    if p == 1:
        # A sum of one is the row -- but for the ``0.0 +`` every sum
        # starts from, which turns a stored -0.0 positive.
        return np.add(gather_rows(source, indices, out), np.float32(0.0), out=out)
    per_chunk = max(1, _BLOCK_ELEMS // (p * dim))
    buf = scratch.take("pool", (min(n, per_chunk) * p, dim))
    for lo in range(0, n, per_chunk):
        hi = min(n, lo + per_chunk)
        rows = gather_rows(source, indices[lo * p : hi * p], buf[: (hi - lo) * p])
        np.add.reduce(rows.reshape(hi - lo, p, dim), axis=1, out=out[lo:hi])
    return out


# -- Split-BF16 row update ----------------------------------------------------


def split_scatter_add(
    hi: np.ndarray,
    lo: np.ndarray,
    keep_bits: int,
    indices: np.ndarray,
    deltas: np.ndarray,
    value_rows: np.ndarray | None = None,
) -> None:
    """``W[indices] += deltas`` on the FP32 master ``hi || lo``:
    aggregate the duplicates first
    (:func:`repro.kernels.reference.aggregate_duplicates`), then run the
    update at full FP32 accuracy on the reconstructed rows (the
    Split-SGD trick)."""
    if value_rows is not None:
        deltas = np.asarray(deltas)[value_rows]
    split_add_aggregated(hi, lo, keep_bits, *reference.aggregate_duplicates(indices, deltas))


def split_add_aggregated(
    hi: np.ndarray, lo: np.ndarray, keep_bits: int, uniq: np.ndarray, agg: np.ndarray
) -> None:
    """``(hi || lo)[uniq] += agg`` for distinct rows ``uniq``: rejoin
    ``hi || lo``, add, split again -- in two buffers."""
    bits, half = take_halves(hi, lo, uniq)
    master = bits.view(np.float32)
    np.add(master, agg, out=master)
    split_fp32_into(master, half, keep_bits)
    lo[uniq] = half
    np.right_shift(bits, 16, out=bits)
    np.copyto(half, bits, casting="unsafe")
    hi[uniq] = half


# -- dense steps --------------------------------------------------------------


def descend(values: np.ndarray, grads: np.ndarray, lr: float, scratch: np.ndarray) -> None:
    """``values -= lr * grads`` in place, a ``scratch`` length at a
    time: ``scratch`` holds the product (the only temporary of the SGD
    kernels), rounded to FP32, and a block stays in L2 between the two
    ufunc calls."""
    rate, step = np.float32(lr), scratch.size
    for at in range(0, values.size, step):
        v = values[at : at + step]
        np.subtract(v, np.multiply(grads[at : at + step], rate, out=scratch[: v.size]), out=v)


def split_sgd_step(
    values: np.ndarray,
    lo: np.ndarray,
    grads: np.ndarray,
    lr: float,
    keep_bits: int,
    scratch: np.ndarray,
) -> None:
    """Split-SGD on one span: ``values`` holds BF16 numbers widened to
    FP32, ``lo`` the other halves.  Block by block (a ``scratch``
    length): rejoin into the FP32 master, step at full accuracy, split
    again."""
    step = scratch.size
    for at in range(0, values.size, step):
        v, half = values[at : at + step], lo[at : at + step]
        bits = v.view(np.uint32)
        np.bitwise_or(bits, half, out=bits)
        descend(v, grads[at : at + step], lr, scratch)
        split_fp32_into(v, half, keep_bits)
