"""The native kernel tier: checked entries to the C loops of ``kernels.c``.

The C functions take raw pointers, so every check happens here, before
the first write.  Each entry's array arguments are declared once, in
:data:`CONTRACTS` -- dtype, rank and agreeing shapes, C-contiguity,
writeability, ids under their bound, offsets rising from 0, and the one
rule for ``restrict`` pointers: no written array overlaps any other
argument -- and :func:`bind` applies every clause (a
:class:`~repro.kernels.lookup.Lookup` is not rescanned).  What no array
clause can say stays in the entry: a Zipf table no larger than the
scramble's ``int64`` bound, the teacher's ``uint64`` keys, interaction
vectors no wider than :data:`MAX_DOT_DIM` on a host whose BLAS agrees
with the C loops (:func:`blas_agrees`), a ``PCG64`` draw between bounds
NumPy accepts once the C loop has matched NumPy's own
(:func:`pcg64_agrees`).  An entry that cannot *represent* its
inputs (another dtype, a strided view, an id out of range, no library
in this process) touches nothing and says so -- ``False``, or ``None``
for those that return arrays -- and :mod:`repro.kernels.dispatch` hands
the same inputs, unchanged, to the NumPy tier, where they wrap or raise
as they always did.  ``np.memmap`` storage and ``rows_view`` slices are
plain C-contiguous arrays and take these entries.  Alignment is never
checked: arrays from :func:`~repro.kernels.workspace.aligned_empty`
start on a cache line, and one that does not gets the same bits, only
slower.

Thread sharding is the caller's pool over disjoint ranges -- rows for
the scatter (Alg. 4: every thread scans all look-ups and owns
``[M*t//T, M*(t+1)//T)``), bags for the pooled forward, runs of one id
for the Split-BF16 update -- so each output row has one owner who folds
it in input order, and the bits do not depend on the number of threads.
The NumPy tier never shards.  The two data kernels, the interaction and
the uniform draw run whole on the calling thread.  A ``ctypes`` call
releases the GIL.

``python -m repro.kernels.native`` says what is loaded.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from typing import Callable

import numpy as np

from repro.kernels import interaction
from repro.kernels.lookup import Lookup, arrays
from repro.kernels.native.build import library
from repro.kernels.rows import lo_mask, per_bag
from repro.kernels.synth import MAX_SCRAMBLE_ITEMS
from repro.kernels.threads import resolve_pool, shardable
from repro.kernels.workspace import aligned_empty


def tier() -> str:
    """``"native"`` or ``"numpy"``: what this process runs (loads the
    library if nothing has yet)."""
    return "numpy" if library() is None else "native"


#: One parsed clause of :data:`CONTRACTS`; each size of ``shape`` is
#: ``(name, excess, least)``: the axis is ``at[name] + excess`` long
#: and ``at[name] >= least`` (``excess`` and ``least``: False or True).
Clause = namedtuple("Clause", "name each dtypes shape written below rises_to optional")
_DTYPES = {"f32": np.float32, "f64": np.float64, "i64": np.int64, "u16": np.uint16}
_CLAUSE = re.compile(
    r"(?P<name>\w+):(?:\[(?P<each>\w+)\])?(?P<dtypes>[\w|]+)\[(?P<shape>[\w,>+]+)\]"
    r"(?P<written>!?)(?:<(?P<below>\w+)|~(?P<rises_to>\w+))?(?P<optional>\??)"
)


def _clause(spec: str) -> Clause:
    raw = Clause(**_CLAUSE.fullmatch(spec).groupdict())
    sizes = raw.shape.split(",")
    return raw._replace(
        dtypes=tuple(np.dtype(_DTYPES[d]) for d in raw.dtypes.split("|")),
        shape=tuple((re.match(r"[a-z]+", s)[0], s.endswith("+1"), s.endswith(">0")) for s in sizes),
        written=bool(raw.written),
        optional=bool(raw.optional),
    )


#: Every native entry's array arguments in call order, one clause each:
#: ``name:dtype[sizes]`` is a C-contiguous array of that dtype (``f32|u16``:
#: either) with one size per axis.  A size binds where it first appears
#: and must agree after that; ``d>0`` is at least 1 and ``b+1`` one more
#: than ``b``; an id bound and an offsets end are bound earlier.  ``[s]``
#: before the dtype: ``s`` such arrays.
#: ``!``: written -- writeable, and apart from every other argument (the
#: C loops declare their pointers ``restrict``).  ``<rows``: every entry
#: in ``[0, rows)``.  ``~n``: rising from 0 to ``n``.  ``?``: may be
#: None; absent offsets make each look-up a bag of its own.
CONTRACTS = {
    entry: tuple(map(_clause, specs))
    for entry, *specs in (
        ("scatter_add_exact", "weight:f32[rows,dim>0]!", "indices:i64[n]<rows",
         "offsets:i64[bags+1]~n?", "deltas:f32[bags,dim]"),
        ("pool_rows", "source:f32|u16[rows,dim>0]", "indices:i64[n]<rows", "offsets:i64[bags+1]~n"),
        ("split_scatter_add", "hi:u16[rows,dim>0]!", "lo:u16[rows,dim]!", "indices:i64[n]<rows",
         "offsets:i64[bags+1]~n?", "deltas:f32[bags,dim]"),
        ("sgd_step", "values:f32[n]!", "grads:f32[n]"),
        ("split_sgd_step", "values:f32[n]!", "lo:u16[n]!", "grads:f32[n]"),
        ("zipf_ids", "x:f64[n]"),
        ("teacher_bags", "ids:i64[n]", "offsets:i64[bags+1]~n", "score:f64[bags]!"),
        ("dot_interaction", "dense:f32[n,e>0]", "embs:[s]f32[n,e]", "z:f32[n,s+1,e]!?"),
        ("dot_interaction_backward", "z:f32[n,v,e]", "dout:f32[n,w]"),
        ("uniform_fill", "out:f32[rows,dim]!"),
    )
}


def bind(entry: str, *args) -> tuple:
    """``(lib, at)`` for ``args``, ``entry``'s array arguments in clause
    order: ``at`` holds every size the contract names and, under each
    argument's name, its address (a list of them for a list; None when
    absent).  ``(None, None)`` when the library is missing or any clause
    fails.  Every clause is applied before the entry writes anything.  A
    Lookup in an id clause brings its ids and offsets, scanned only if
    its bound is past the ids' own."""
    lib = library()
    if lib is None:
        return None, None
    at = {}
    spans = []  # (first byte, end, written) of every array
    look = None
    for clause, value in zip(CONTRACTS[entry], args):
        trusted = False  # checked once already: a Lookup's ids under this bound, its offsets
        if isinstance(value, Lookup) and clause.below:
            look, value = value, value.ids
            trusted = look.bound <= at[clause.below]
        elif look is not None and clause.rises_to:
            value, trusted = look.offsets, True
        if value is None and clause.optional:
            at[clause.name] = None
            if clause.rises_to:  # each look-up a bag of its own
                at.setdefault(clause.shape[0][0], at[clause.rises_to])
            continue
        items = value if clause.each else (value,)
        if clause.each and not isinstance(value, (list, tuple)):
            return None, None
        if clause.each and at.setdefault(clause.each, len(value)) != len(value):
            return None, None
        addresses = []
        for a in items:
            if not (isinstance(a, np.ndarray) and a.dtype in clause.dtypes):
                return None, None
            if a.ndim != len(clause.shape) or not a.flags.c_contiguous:
                return None, None
            if clause.written and not a.flags.writeable:
                return None, None
            for (name, excess, least), extent in zip(clause.shape, a.shape):
                extent -= excess
                if extent < least or at.setdefault(name, extent) != extent:
                    return None, None
            address = a.ctypes.data
            scan = clause.below and not trusted
            if scan and not lib.repro_ids_in_range(address, a.shape[0], at[clause.below]):
                return None, None
            if clause.rises_to and not (
                a[0] == 0 and a[-1] == at[clause.rises_to] and (trusted or (a[1:] >= a[:-1]).all())
            ):
                return None, None
            addresses.append(address)
            spans.append((address, address + a.nbytes, clause.written))
        at[clause.name] = addresses if clause.each else addresses[0]
    for first, end, written in spans:  # a written array's bytes meet only its own
        if written and sum(max(first, f) < min(end, e) for f, e, _ in spans) > 1:
            return None, None
    return lib, at


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


def scatter_add_exact(weight, indices, deltas, offsets=None, scale=1.0, pool=None) -> bool:
    """Alg. 2-4: look-up ``s`` of bag ``b`` adds ``fl32(scale * deltas[b])``
    to its row in ``np.add.at``'s order; False when not representable."""
    lib, at = bind("scatter_add_exact", weight, indices, offsets, deltas)
    if lib is None:
        return False
    args = (at["weight"], at["dim"], at["indices"], at["offsets"], at["bags"], at["deltas"], scale)
    kernel = lib.repro_scatter_add_f32
    _run(lambda lo, hi, tid: kernel(*args, lo, hi), at["rows"], at["n"], at["n"] * at["dim"], pool)
    return True


def pool_rows(source, indices, offsets, pool=None) -> np.ndarray | None:
    """Alg. 1: ``out[b] = +0.0 + source[indices[s]] + ...`` over bag
    ``b``'s look-ups ``[offsets[b], offsets[b+1])``; ``source`` is FP32
    rows or the ``uint16`` hi half of Split-BF16 rows, widened on the
    fly.  None when not representable."""
    lib, at = bind("pool_rows", source, indices, offsets)
    if lib is None:
        return None
    bags = at["bags"]
    kernel = lib.repro_pool_f32 if source.dtype == np.float32 else lib.repro_pool_bf16
    out = aligned_empty((bags, at["dim"]), np.float32)
    args = (at["source"], at["dim"], at["indices"], at["offsets"])
    _run(lambda lo, hi, tid: kernel(*args, lo, hi, _ptr(out)), bags, bags, at["n"] * at["dim"], pool)
    return out


def split_scatter_add(hi, lo, keep_bits, indices, deltas, offsets=None, scale=1.0, pool=None) -> bool:
    """:func:`scatter_add_exact` on the FP32 master ``hi || lo``: per
    touched row, aggregate its deltas from +0.0 in input order, rejoin,
    add once, split -- one pass, no materialised aggregate.  False when
    not representable."""
    lib, at = bind("split_scatter_add", hi, lo, indices, offsets, deltas)
    if lib is None:
        return False
    dim = at["dim"]
    ids, offsets = arrays(indices, offsets)
    deltas, bag_ids = per_bag(deltas, offsets, scale)  # it sorts anyway: no bag walk
    order, uniq, starts, lengths = _plan_segments(ids)
    args = (at["hi"], at["lo"], dim, int(lo_mask(keep_bits)))
    segs = (_ptr(uniq), _ptr(starts), _ptr(lengths))
    tail = (_ptr(order), _ptr(bag_ids), _ptr(deltas))

    def update(seg_lo: int, seg_hi: int, tid: int) -> None:
        acc = np.empty(dim, dtype=np.float32)
        lib.repro_split_scatter_add(*args, *segs, seg_lo, seg_hi, *tail, _ptr(acc))

    _run(update, uniq.shape[0], uniq.shape[0], at["n"] * dim, pool)
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


def sgd_step(values, grads, lr: float) -> bool:
    """``values -= fl32(lr * grads)`` on flat FP32 spans; False when
    not representable."""
    lib, at = bind("sgd_step", values, grads)
    if lib is None:
        return False
    lib.repro_sgd_step(at["values"], at["grads"], at["n"], float(lr))
    return True


def split_sgd_step(values, lo, grads, lr: float, keep_bits: int) -> bool:
    """Split-SGD on flat spans (``values``: BF16 widened to FP32,
    ``lo``: the other ``uint16`` halves); False when not representable."""
    lib, at = bind("split_sgd_step", values, lo, grads)
    if lib is None:
        return False
    lib.repro_split_sgd_step(
        at["values"], at["lo"], at["grads"], at["n"], float(lr), int(lo_mask(keep_bits))
    )
    return True


def zipf_ids(x, n_items, scramble: bool) -> np.ndarray | None:
    """``bounded_zipf``'s integer tail over float64 power-law draws
    ``x``; None when not representable (an item count outside
    ``[1, MAX_SCRAMBLE_ITEMS]``, scrambled or not)."""
    lib, at = bind("zipf_ids", x)
    items = isinstance(n_items, (int, np.integer)) and 1 <= n_items <= MAX_SCRAMBLE_ITEMS
    if lib is None or not items:
        return None
    ids = np.empty(at["n"], dtype=np.int64)
    lib.repro_zipf_ids(at["x"], at["n"], int(n_items), int(bool(scramble)), _ptr(ids))
    return ids


def teacher_bags(ids, offsets, mix: int, seed_mult: int, weight: float, score) -> bool:
    """The teacher's term for one table, added into ``score`` (one
    float64 per bag) in place; False when not representable."""
    lib, at = bind("teacher_bags", ids, offsets, score)
    if lib is None or not (0 <= mix < 1 << 64 and 0 <= seed_mult < 1 << 64):
        return False
    keys = (int(mix), int(seed_mult), float(weight))
    lib.repro_teacher_bags(at["ids"], at["offsets"], at["bags"], *keys, at["score"])
    return True


#: The widest ``E`` the interaction entries take.  Their dot products are
#: FMA chains over ``E`` in order, which is a BLAS microkernel's order
#: only while ``E`` fits one of its K blocks (OpenBLAS 0.3.31 on an
#: AVX-512 Xeon held at 448 and split at 512).
MAX_DOT_DIM = 256
#: ``(N, V, E)`` of the agreement check: one pair, an odd width, the
#: suite's ``V`` and ``E``, a vector body and tail, the cap.
_BATTERY = ((1, 2, 2), (3, 3, 7), (4, 9, 64), (3, 9, 65), (2, 27, 128), (2, 5, 255), (2, 4, 256))


@functools.cache
def blas_agrees() -> bool:
    """Whether this process's BLAS computes the dot interaction with the
    bits of the C loops.  On first use both tiers run :data:`_BATTERY`,
    once plain and once with ±0, subnormals, ±inf and NaN mixed in; one
    differing bit makes the interaction entries decline for the rest of
    the process.  A capability of the host, like the compiler: no knob."""
    lib = library()
    return lib is not None and _agreement(lib)


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
                got = _dot_forward(lib, [_ptr(a) for a in vecs], n, e, _ptr(mine))
                dout = draw(want.shape, share)
                mine_grads = _dot_backward(lib, _ptr(mine), _ptr(dout), n, v, e)
                grads = zip(interaction.interact_backward(z, dout), mine_grads)
                if not all(a.tobytes() == b.tobytes() for a, b in ((want, got), (z, mine), *grads)):
                    return False
    return True


def dot_interaction(dense, embs, z=None) -> np.ndarray | None:
    """The dot interaction's forward, the stacked vectors written into
    ``z`` when given; None when not representable (``E`` past
    :data:`MAX_DOT_DIM`, among others) or when :func:`blas_agrees` says
    no."""
    lib, at = bind("dot_interaction", dense, embs, z)
    if lib is None or at["e"] > MAX_DOT_DIM or not blas_agrees():
        return None
    return _dot_forward(lib, [at["dense"], *at["embs"]], at["n"], at["e"], at["z"])


def _dot_forward(lib, vecs: list[int], n: int, e: int, z: int | None) -> np.ndarray:
    v = len(vecs)
    out = np.empty((n, e + interaction.pairs(v)), np.float32)
    ptrs = np.array(vecs, dtype=np.uintp)
    args = (_ptr(ptrs), n, v, e, z, _ptr(out))
    need = lib.repro_dot_fwd(*args, None, 0)  # declines, naming the scratch it needs
    scratch = np.empty(need, np.float32)
    lib.repro_dot_fwd(*args, _ptr(scratch), need)
    return out


def dot_interaction_backward(z, dout) -> tuple[np.ndarray, np.ndarray] | None:
    """The dot interaction's backward from the forward's stacked ``z``:
    ``(ddense, dembs)``, ``dembs`` one ``(S, N, E)`` block.  None when not
    representable (``E`` past :data:`MAX_DOT_DIM`, a ``dout`` that is not
    ``(N, E + V(V-1)/2)``, among others), for ``E = 1`` (NumPy's matmul
    takes ``gemv`` for a one-column product, whose reduction order is its
    kernel's own) or when :func:`blas_agrees` says no."""
    lib, at = bind("dot_interaction_backward", z, dout)
    if lib is None:
        return None
    n, v, e = z.shape
    if not (v > 1 and 1 < e <= MAX_DOT_DIM and at["w"] == e + interaction.pairs(v)):
        return None
    return _dot_backward(lib, at["z"], at["dout"], n, v, e) if blas_agrees() else None


def _dot_backward(lib, z: int, dout: int, n: int, v: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    ddense, dembs = np.empty((n, e), np.float32), np.empty((v - 1, n, e), np.float32)
    sym = np.empty(v * v, np.float32)
    lib.repro_dot_bwd(z, dout, n, v, e, _ptr(ddense), _ptr(dembs), _ptr(sym))
    return ddense, dembs


def uniform_fill(out, rng, low, high) -> bool:
    """``out[...] = rng.uniform(low, high, out.shape)`` rounded to FP32,
    ``rng`` left where that draw leaves it; False when not representable
    (a bit generator other than ``PCG64``; bounds ``Generator.uniform``
    broadcasts, or refuses: a range below +0.0 or past the largest
    double) or when :func:`pcg64_agrees` says no."""
    lib, at = bind("uniform_fill", out)
    pcg64 = isinstance(rng, np.random.Generator) and type(rng.bit_generator) is np.random.PCG64
    scalars = all(isinstance(b, (int, float, np.integer, np.floating)) for b in (low, high))
    if lib is None or not (pcg64 and scalars):
        return False
    try:
        low, span = float(low), float(high) - float(low)
    except OverflowError:
        return False
    if not (math.copysign(1.0, span) > 0 and span < math.inf and pcg64_agrees()):
        return False
    return _fill(lib, rng.bit_generator, at["out"], out.size, low, span)


def _fill(lib, bits, out: int, n: int, low: float, span: float) -> bool:
    """``n`` draws into ``out`` from ``PCG64`` ``bits``, its 128-bit state
    and increment in and the state back out through ``bits.state``,
    under ``bits.lock``; False, touching nothing, where the library was
    built without 128-bit integers."""
    with bits.lock:
        state = bits.state
        s, inc = state["state"]["state"], state["state"]["inc"]
        words = np.array([(v >> k) & ((1 << 64) - 1) for v in (s, inc) for k in (0, 64)], np.uint64)
        if not lib.repro_uniform_fill(_ptr(words), n, low, span, out):
            return False
        state["state"]["state"] = int(words[0]) | int(words[1]) << 64
        bits.state = state
        return True


#: ``(draws, low, high)`` of the uniform agreement check: none, one, a
#: few, a long ragged run; a unit, a table's, an underflowing and an
#: empty range.
_DRAWS = ((0, 0.0, 1.0), (1, -0.5, 0.5), (7, -0.0125, 0.0125), (8, 0.0, 1.0),
          (9, -3.0, 1e-300), (1001, -0.0125, 0.0125), (1001, 2.0, 2.0))


@functools.cache
def pcg64_agrees() -> bool:
    """Whether the C uniform draw gives NumPy's ``PCG64``
    ``Generator.uniform`` bits in this process.  On first use both run
    :data:`_DRAWS` from fresh generators and compare the values, the
    state left behind and the draws after it; one differing bit makes
    :func:`uniform_fill` decline for the rest of the process."""
    lib = library()
    return lib is not None and all(_draw_agrees(lib, *case) for case in _DRAWS)


def _draw_agrees(lib, n: int, low: float, high: float) -> bool:
    mine, theirs = np.random.default_rng(n), np.random.default_rng(n)
    got = np.empty(n, np.float32)
    if not _fill(lib, mine.bit_generator, _ptr(got), n, low, high - low):
        return False
    want = theirs.uniform(low, high, n).astype(np.float32)
    return got.tobytes() == want.tobytes() and mine.random(3).tobytes() == theirs.random(3).tobytes()
