"""The native kernel tier: checked entries to the C loops of ``kernels.c``.

The C functions take raw pointers, so every check happens here, before
the first write: dtype, C-contiguity, writeability, agreeing shapes,
every id inside ``[0, rows)`` and every ``value_rows`` entry inside
``[0, len(deltas))``, offsets rising from 0 to the number of ids, a
Zipf table no larger than the scramble's ``int64`` bound, interaction
vectors of one shape no wider than :data:`MAX_DOT_DIM` on a host whose
BLAS agrees with the C loops (:func:`blas_agrees`).  An entry
that cannot *represent* its inputs (another dtype, a strided view, an
id out of range, no library in this process) touches nothing and says
so -- ``False``, or ``None`` for those that return arrays -- and
:mod:`repro.kernels.dispatch` hands the same inputs, unchanged, to the
NumPy tier, where they wrap or raise as they always did.  ``np.memmap``
storage and ``rows_view`` slices are plain C-contiguous arrays and take
these entries.  Alignment is never checked: arrays from
:func:`~repro.kernels.workspace.aligned_empty` start on a cache line,
and one that does not gets the same bits, only slower.

Thread sharding is the caller's pool over disjoint ranges -- rows for
the scatter (Alg. 4: every thread scans all look-ups and owns
``[M*t//T, M*(t+1)//T)``), bags for the pooled forward, runs of one id
for the Split-BF16 update -- so each output row has one owner who folds
it in input order, and the bits do not depend on the number of threads.
The NumPy tier never shards.  The two data kernels and the interaction
run whole on the calling thread.  A ``ctypes`` call releases the GIL.

``python -m repro.kernels.native`` says what is loaded.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.kernels import interaction
from repro.kernels.native.build import library
from repro.kernels.rows import lo_mask
from repro.kernels.synth import MAX_SCRAMBLE_ITEMS
from repro.kernels.threads import resolve_pool, shardable
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
    order, uniq, starts, lengths = _plan_segments(indices)
    args = (_ptr(hi), _ptr(lo), dim, int(lo_mask(keep_bits)))
    segs = (_ptr(uniq), _ptr(starts), _ptr(lengths))
    tail = (_ptr(order), _ptr(value_rows), _ptr(deltas))

    def update(seg_lo: int, seg_hi: int, tid: int) -> None:
        acc = np.empty(dim, dtype=np.float32)
        lib.repro_split_scatter_add(*args, *segs, seg_lo, seg_hi, *tail, _ptr(acc))

    n = indices.shape[0]
    _run(update, uniq.shape[0], uniq.shape[0], n * dim, pool)
    return True


def _plan_segments(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(order, uniq, starts, lengths)`` of checked ids: ``order`` a
    stable sort permutation of ``indices``, and run ``j`` of equal ids
    in that order -- every occurrence of row ``uniq[j]``, ascending --
    covers sorted positions ``[starts[j], starts[j] + lengths[j])``.

    Sorts the composite keys ``(row << bits) | position``: the keys are
    unique, so one plain in-place ``int64`` sort orders them exactly as
    a stable sort orders the rows (3x faster than ``argsort(kind=
    "stable")`` at 4,096 ids), and ``order`` and the sorted rows are
    read back with a mask and a shift.  Ids that leave no room for the
    position bits (negative, or ``>= 2**(62 - bits)``) take the stable
    ``argsort``; both spellings give the same runs.
    """
    nnz = indices.shape[0]
    if nnz == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
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
    return order, sorted_rows[starts], starts, np.diff(np.append(starts, nnz))


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


#: The widest ``E`` the interaction entries take.  Their dot products are
#: FMA chains over ``E`` in order, which is a BLAS microkernel's order
#: only while ``E`` fits one of its K blocks (OpenBLAS 0.3.31 on an
#: AVX-512 Xeon held at 448 and split at 512).
MAX_DOT_DIM = 256
#: ``(N, V, E)`` of the agreement check: one pair, an odd width, the
#: suite's ``V`` and ``E``, a vector body and tail, the cap.
_BATTERY = ((1, 2, 2), (3, 3, 7), (4, 9, 64), (3, 9, 65), (2, 27, 128), (2, 5, 255), (2, 4, 256))
_agrees: bool | None = None


def blas_agrees() -> bool:
    """Whether this process's BLAS computes the dot interaction with the
    bits of the C loops.  On first use both tiers run :data:`_BATTERY`,
    once plain and once with ±0, subnormals, ±inf and NaN mixed in; one
    differing bit makes the interaction entries decline for the rest of
    the process.  A capability of the host, like the compiler: no knob."""
    global _agrees
    if _agrees is None:
        lib = library()
        _agrees = lib is not None and _agreement(lib)
    return _agrees


def _agreement(lib) -> bool:
    rng = np.random.default_rng(0)
    with np.errstate(all="ignore"):
        inf = np.float32(np.inf)
        specials = np.array([0.0, -0.0, 1e-40, -1e-45, inf, -inf, inf - inf], np.float32)

        def draw(shape: tuple[int, ...], share: float) -> np.ndarray:
            a = (rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)).astype(np.float32)
            mask = rng.random(shape) < share
            a[mask] = rng.choice(specials, int(mask.sum()))
            return a

        for n, v, e in _BATTERY:
            for share in (0.0, 0.01):
                vecs = [draw((n, e), share) for _ in range(v)]
                z, mine = np.empty((2, n, v, e), np.float32)
                want = interaction.interact(vecs[0], vecs[1:], z)
                got = _dot_forward(lib, vecs, mine)
                dout = draw(want.shape, share)
                grads = zip(interaction.interact_backward(z, dout), _dot_backward(lib, mine, dout))
                if not all(a.tobytes() == b.tobytes() for a, b in ((want, got), (z, mine), *grads)):
                    return False
    return True


def _vectors(dense, embs) -> list | None:
    """``[dense, *embs]`` when every one is a C-contiguous FP32 matrix of
    one ``(N, E)`` shape, ``1 <= E <= MAX_DOT_DIM``; else None."""
    vecs = [dense, *embs]
    if all(_plain(a, np.float32, 2) and a.shape == dense.shape for a in vecs):
        return vecs if 1 <= dense.shape[1] <= MAX_DOT_DIM else None
    return None


def dot_interaction(dense, embs, z=None) -> np.ndarray | None:
    """The dot interaction's forward, the stacked vectors written into
    ``z`` when given; None when not representable (another dtype, a
    strided view, shapes that disagree, ``E`` past :data:`MAX_DOT_DIM`, a
    ``z`` that is not a writeable ``(N, V, E)`` FP32 buffer apart from the
    inputs) or when :func:`blas_agrees` says no."""
    lib = library()
    vecs = None if lib is None else _vectors(dense, embs)
    if vecs is None or not (
        z is None
        or (
            _plain(z, np.float32, 3, writeable=True)
            and z.shape == (dense.shape[0], len(vecs), dense.shape[1])
            and _disjoint((z,), tuple(vecs))
        )
    ):
        return None
    return _dot_forward(lib, vecs, z) if blas_agrees() else None


def _dot_forward(lib, vecs: list, z) -> np.ndarray:
    (n, e), v = vecs[0].shape, len(vecs)
    out = np.empty((n, e + interaction.pairs(v)), np.float32)
    ptrs = np.array([a.ctypes.data for a in vecs], dtype=np.uintp)
    args = (_ptr(ptrs), n, v, e, _ptr(z), _ptr(out))
    need = lib.repro_dot_fwd(*args, None, 0)  # declines, naming the scratch it needs
    scratch = np.empty(need, np.float32)
    lib.repro_dot_fwd(*args, _ptr(scratch), need)
    return out


def dot_interaction_backward(z, dout) -> tuple[np.ndarray, np.ndarray] | None:
    """The dot interaction's backward from the forward's stacked ``z``:
    ``(ddense, dembs)``, ``dembs`` one ``(S, N, E)`` block.  None when not
    representable (another dtype, a strided view, ``E`` past
    :data:`MAX_DOT_DIM`, a ``dout`` that is not ``(N, E + V(V-1)/2)``), for
    ``E = 1`` (NumPy's matmul takes ``gemv`` for a one-column product,
    whose reduction order is its kernel's own) or when
    :func:`blas_agrees` says no."""
    lib = library()
    if lib is None or not (_plain(z, np.float32, 3) and _plain(dout, np.float32, 2)):
        return None
    n, v, e = z.shape
    if not (v > 1 and 1 < e <= MAX_DOT_DIM and dout.shape == (n, e + interaction.pairs(v))):
        return None
    return _dot_backward(lib, z, dout) if blas_agrees() else None


def _dot_backward(lib, z, dout) -> tuple[np.ndarray, np.ndarray]:
    n, v, e = z.shape
    ddense, dembs = np.empty((n, e), np.float32), np.empty((v - 1, n, e), np.float32)
    sym = np.empty(v * v, np.float32)
    lib.repro_dot_bwd(_ptr(z), _ptr(dout), n, v, e, _ptr(ddense), _ptr(dembs), _ptr(sym))
    return ddense, dembs
