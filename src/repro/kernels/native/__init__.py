"""The native kernel tier: checked entries to the C loops of ``kernels.c``.

The C functions take raw pointers, so every check happens here, before
the first write: dtype, C-contiguity, writeability, agreeing shapes,
every id inside ``[0, rows)`` and every ``value_rows`` entry inside
``[0, len(deltas))``, offsets rising from 0 to the number of ids, a
Zipf table no larger than the scramble's ``int64`` bound.  An entry
that cannot *represent* its inputs (another dtype, a strided view, an
id out of range, no library in this process) touches nothing and says
so -- ``False``, or ``None`` for the two that return an array -- and
:mod:`repro.kernels.dispatch` hands the same inputs, unchanged, to the
NumPy tier, where they wrap or raise as they always did.  ``np.memmap``
storage and ``rows_view`` slices are plain C-contiguous arrays and take
these entries.  Alignment is never checked: arrays from
:func:`~repro.kernels.workspace.aligned_empty` start on a cache line,
and one that does not gets the same bits, only slower.

Thread sharding is the caller's pool over disjoint ranges -- rows for
the scatter (Alg. 4: every thread scans all look-ups and owns
``[M*t//T, M*(t+1)//T)``), bags for the pooled forward, segments for the
Split-BF16 update -- so each output row has one owner who folds it in
input order, and the bits do not depend on the number of threads.  The
two data kernels run whole on the calling thread.  A ``ctypes`` call
releases the GIL.

``python -m repro.kernels.native`` says what is loaded.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.kernels.native.build import library
from repro.kernels.rows import lo_mask
from repro.kernels.segment import plan_segments, resolve_pool, shardable
from repro.kernels.synth import MAX_SCRAMBLE_ITEMS
from repro.kernels.workspace import aligned_empty


def tier() -> str:
    """``"native"`` or ``"numpy"``: what this process runs (loads the
    library if nothing has yet)."""
    return "numpy" if library() is None else "native"


def _plain(a, dtype: type, ndim: int, writeable: bool = False) -> bool:
    return (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.ndim == ndim
        and a.flags.c_contiguous
        and (a.flags.writeable or not writeable)
    )


def _disjoint(written: tuple, read: tuple = ()) -> bool:
    """No written array may overlap another array the kernel touches
    (the C loops declare their pointers ``restrict``)."""
    return not any(
        np.may_share_memory(w, other)
        for i, w in enumerate(written)
        for other in (*written[i + 1 :], *read)
    )


def _ids(lib, ids, n: int | None, bound: int) -> bool:
    """``ids``: a C-contiguous ``int64`` vector (of ``n`` entries, when
    given), every entry in ``[0, bound)``."""
    return (
        _plain(ids, np.int64, 1)
        and (n is None or ids.shape[0] == n)
        and bool(lib.repro_ids_in_range(ids.ctypes.data, ids.shape[0], bound))
    )


def _deltas(lib, deltas, dim: int, n: int, value_rows) -> bool:
    """``deltas``: FP32 ``(k, dim)`` rows, one per look-up, or shared
    and named by ``value_rows``, all inside ``[0, k)``."""
    if not (_plain(deltas, np.float32, 2) and deltas.shape[1] == dim):
        return False
    if value_rows is None:
        return deltas.shape[0] == n
    return _ids(lib, value_rows, n, deltas.shape[0])


def _offsets(offsets, n: int) -> bool:
    """``offsets``: a C-contiguous ``int64`` vector of bag bounds rising
    from 0 to ``n``."""
    return (
        _plain(offsets, np.int64, 1)
        and offsets.shape[0] > 0
        and offsets[0] == 0
        and offsets[-1] == n
        and not (np.diff(offsets) < 0).any()
    )


def _run(fn: Callable[[int, int, int], None], work: int, items: int, elems: int, pool) -> None:
    """``fn(lo, hi, tid)`` over ``[0, work)``: whole, or sharded over the
    pool's static ranges when the payload is worth the hand-off."""
    pool = resolve_pool(pool)
    if shardable(pool, items, elems):
        pool.run_sharded(fn, work)
    elif work:
        fn(0, work, 0)


def _ptr(a: np.ndarray | None) -> int | None:
    return None if a is None else a.ctypes.data


def scatter_add_exact(weight, indices, deltas, value_rows=None, pool=None) -> bool:
    """``weight[indices] += deltas`` (``deltas[value_rows]`` when given)
    in ``np.add.at``'s order; False when not representable."""
    lib = library()
    if lib is None or not (_plain(weight, np.float32, 2, writeable=True) and weight.shape[1]):
        return False
    rows, dim = weight.shape
    if not (_ids(lib, indices, None, rows) and _deltas(lib, deltas, dim, len(indices), value_rows)):
        return False
    if not _disjoint((weight,), (deltas,)):
        return False
    n = indices.shape[0]
    args = (_ptr(weight), dim, _ptr(indices), n, _ptr(deltas), _ptr(value_rows))
    _run(lambda lo, hi, tid: lib.repro_scatter_add_f32(*args, lo, hi), rows, n, n * dim, pool)
    return True


def pool_rows(source, indices, offsets, pool=None) -> np.ndarray | None:
    """Alg. 1: ``out[b] = +0.0 + source[indices[s]] + ...`` over bag
    ``b``'s look-ups ``[offsets[b], offsets[b+1])``; ``source`` is FP32
    rows or the ``uint16`` hi half of Split-BF16 rows, widened on the
    fly.  None when not representable."""
    lib = library()
    if lib is None:
        return None
    if _plain(source, np.float32, 2):
        kernel = lib.repro_pool_f32
    elif _plain(source, np.uint16, 2):
        kernel = lib.repro_pool_bf16
    else:
        return None
    rows, dim = source.shape
    if not (dim and _ids(lib, indices, None, rows) and _offsets(offsets, indices.shape[0])):
        return None
    n, bags = indices.shape[0], offsets.shape[0] - 1
    out = aligned_empty((bags, dim), np.float32)
    args = (_ptr(source), dim, _ptr(indices), _ptr(offsets))
    _run(lambda lo, hi, tid: kernel(*args, lo, hi, _ptr(out)), bags, bags, n * dim, pool)
    return out


def split_scatter_add(hi, lo, keep_bits, indices, deltas, value_rows=None, pool=None) -> bool:
    """``W[indices] += deltas`` on the FP32 master ``hi || lo``: per
    touched row, aggregate its deltas from +0.0 in input order, rejoin,
    add once, split -- one pass, no materialised aggregate.  False when
    not representable."""
    lib = library()
    if lib is None or not (
        _plain(hi, np.uint16, 2, writeable=True)
        and _plain(lo, np.uint16, 2, writeable=True)
        and hi.shape == lo.shape
        and hi.shape[1]
    ):
        return False
    rows, dim = hi.shape
    if not (_ids(lib, indices, None, rows) and _deltas(lib, deltas, dim, len(indices), value_rows)):
        return False
    if not _disjoint((hi, lo), (deltas,)):
        return False
    plan = plan_segments(indices)
    args = (_ptr(hi), _ptr(lo), dim, int(lo_mask(keep_bits)))
    segs = (_ptr(plan.uniq), _ptr(plan.starts), _ptr(plan.lengths))
    tail = (_ptr(plan.order), _ptr(value_rows), _ptr(deltas))

    def update(seg_lo: int, seg_hi: int, tid: int) -> None:
        acc = np.empty(dim, dtype=np.float32)
        lib.repro_split_scatter_add(*args, *segs, seg_lo, seg_hi, *tail, _ptr(acc))

    n = indices.shape[0]
    _run(update, plan.uniq.shape[0], plan.uniq.shape[0], n * dim, pool)
    return True


def _flat_step(values, grads) -> bool:
    return (
        _plain(values, np.float32, 1, writeable=True)
        and _plain(grads, np.float32, 1)
        and values.shape == grads.shape
    )


def sgd_step(values, grads, lr: float) -> bool:
    """``values -= fl32(lr * grads)`` on flat FP32 spans; False when
    not representable."""
    lib = library()
    if lib is None or not (_flat_step(values, grads) and _disjoint((values,), (grads,))):
        return False
    lib.repro_sgd_step(_ptr(values), _ptr(grads), values.shape[0], float(lr))
    return True


def split_sgd_step(values, lo, grads, lr: float, keep_bits: int) -> bool:
    """Split-SGD on flat spans (``values``: BF16 widened to FP32,
    ``lo``: the other ``uint16`` halves); False when not representable."""
    lib = library()
    if lib is None or not (
        _flat_step(values, grads)
        and _plain(lo, np.uint16, 1, writeable=True)
        and lo.shape == values.shape
        and _disjoint((values, lo), (grads,))
    ):
        return False
    lib.repro_split_sgd_step(
        _ptr(values), _ptr(lo), _ptr(grads), values.shape[0], float(lr), int(lo_mask(keep_bits))
    )
    return True


def zipf_ids(x, n_items, scramble: bool) -> np.ndarray | None:
    """``bounded_zipf``'s integer tail over float64 power-law draws
    ``x``; None when not representable (an item count outside
    ``[1, MAX_SCRAMBLE_ITEMS]``, scrambled or not)."""
    lib = library()
    if lib is None or not (
        _plain(x, np.float64, 1)
        and isinstance(n_items, (int, np.integer))
        and 1 <= n_items <= MAX_SCRAMBLE_ITEMS
    ):
        return None
    ids = np.empty(x.shape[0], dtype=np.int64)
    lib.repro_zipf_ids(_ptr(x), x.shape[0], int(n_items), int(bool(scramble)), _ptr(ids))
    return ids


def teacher_bags(ids, offsets, mix: int, seed_mult: int, weight: float, score) -> bool:
    """The teacher's term for one table, added into ``score`` (one
    float64 per bag) in place; False when not representable."""
    lib = library()
    if lib is None or not (
        _plain(ids, np.int64, 1)
        and _plain(score, np.float64, 1, writeable=True)
        and _offsets(offsets, ids.shape[0])
        and offsets.shape[0] == score.shape[0] + 1
        and _disjoint((score,), (ids, offsets))
        and 0 <= mix < 1 << 64
        and 0 <= seed_mult < 1 << 64
    ):
        return False
    keys = (int(mix), int(seed_mult), float(weight))
    lib.repro_teacher_bags(_ptr(ids), _ptr(offsets), score.shape[0], *keys, _ptr(score))
    return True
