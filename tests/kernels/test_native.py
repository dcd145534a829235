"""The native kernel tier: the oracle's bits, and a checked entry.

Three things are pinned here.  *Bits*: every dispatched operator, under
each tier named explicitly, against :mod:`repro.kernels.reference` (or a
literal per-element loop) over the row widths that exercise a vector
body, its tail and neither, with specials in rows and deltas.  *Sharding*:
a scatter over ``T`` of Alg. 4's row ranges, a pooled forward over bag
ranges and a Split-BF16 update over segment ranges equal the unsharded
call for any ``T``.  *Safety*: an input the C loops cannot represent is
refused before the first write and takes the NumPy tier unchanged.
"""

import copy
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import EmbeddingBag
from repro.exec.pool import WorkerPool
from repro.kernels import dispatch, interaction, native, reference, rows as row_kernels
from repro.kernels import synth, threads
from repro.kernels.native import build
from repro.kernels.native.__main__ import LINES, NUMPY_TIER, draw
from repro.kernels.threads import row_range_for_thread
from repro.kernels.workspace import Workspace
from repro.tiering.store import file_backed
from tests.conftest import TIERED
from tests.kernels.test_segment import bits, special_values

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf: wanted inputs

DIMS = [1, 2, 3, 15, 16, 17, 63, 64, 65, 128, 130]

needs_native = pytest.mark.skipif(
    build.library() is None, reason=f"native tier unavailable: {build.load()[1]}"
)


def lookups(rng, table_rows, n_bags, max_len):
    """(ids, offsets, bag id of each look-up): ragged bags, some empty."""
    lengths = rng.integers(0, max_len + 1, size=n_bags)
    offsets = np.zeros(n_bags + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    idx = rng.integers(0, table_rows, size=int(offsets[-1]), dtype=np.int64)
    return idx, offsets, np.repeat(np.arange(n_bags), lengths)


def halves(w):
    b = np.ascontiguousarray(w).view(np.uint32)
    return (b >> 16).astype(np.uint16), b.astype(np.uint16)


case = given(
    dim=st.sampled_from(DIMS),
    n_bags=st.sampled_from([0, 1, 9]),
    max_len=st.sampled_from([0, 1, 4, 70]),
    special_share=st.sampled_from([0.0, 0.05, 0.9]),
    seed=st.integers(0, 10_000),
)


@pytest.mark.usefixtures("kernel_tier")
class TestEveryOperatorUnderEachTier:
    @case
    @settings(max_examples=120, deadline=None, **TIERED)
    def test_scatter_and_pooled_forward(self, dim, n_bags, max_len, special_share, seed):
        rng = np.random.default_rng(seed)
        table_rows = 11
        w0 = special_values(rng, (table_rows, dim), special_share)
        idx, offsets, bag_ids = lookups(rng, table_rows, n_bags, max_len)
        grads = special_values(rng, (n_bags, dim), special_share)
        per_lookup = special_values(rng, (idx.size, dim), special_share)

        for deltas, bags, expanded in (
            (per_lookup, None, per_lookup),
            (grads, offsets, grads[bag_ids]),
        ):
            want, got = w0.copy(), w0.copy()
            reference.scatter_add(want, idx, expanded)
            dispatch.scatter_add_exact(got, idx, deltas, bags)
            np.testing.assert_array_equal(bits(got), bits(want))

        hi, _ = halves(w0)
        widened = (hi.astype(np.uint32) << 16).view(np.float32)
        for source, dense in ((w0, w0), (hi, widened)):
            got = dispatch.pool_rows(source, idx, offsets, Workspace())
            want = reference.segment_sum(dense[idx], offsets)
            assert got.shape == (n_bags, dim) and got.dtype == np.float32
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("dim", DIMS)
    def test_bags_of_length_zero_one_and_past_the_prefetch_distance(self, dim):
        """One call mixing empty, single and long bags, the last ones
        inside the prefetch distance of the call's end."""
        rng = np.random.default_rng(dim)
        lengths = [0, 1, 70, 0, 1, 40, 1, 0, 33, 1, 0, 1]
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        w0 = special_values(rng, (97, dim), 0.05)
        idx = rng.integers(0, 97, size=int(offsets[-1]), dtype=np.int64)
        hi, _ = halves(w0)
        widened = (hi.astype(np.uint32) << 16).view(np.float32)
        for source, dense in ((w0, w0), (hi, widened)):
            got = dispatch.pool_rows(source, idx, offsets, Workspace())
            np.testing.assert_array_equal(bits(got), bits(reference.segment_sum(dense[idx], offsets)))
        deltas = special_values(rng, (idx.size, dim), 0.05)
        want, got = w0.copy(), w0.copy()
        reference.scatter_add(want, idx, deltas)
        dispatch.scatter_add_exact(got, idx, deltas)
        np.testing.assert_array_equal(bits(got), bits(want))

    @case
    @settings(max_examples=120, deadline=None, **TIERED)
    def test_split_bf16_row_update(self, dim, n_bags, max_len, special_share, seed):
        """Aggregate from +0.0 in input order (``np.unique`` +
        ``np.add.at``), one add on the rejoined master, split."""
        rng = np.random.default_rng(seed)
        table_rows = 11
        w0 = special_values(rng, (table_rows, dim), special_share)
        idx, offsets, bag_ids = lookups(rng, table_rows, n_bags, max_len)
        grads = special_values(rng, (n_bags, dim), special_share)
        for keep_bits in (16, 8, 0):
            mask = row_kernels.lo_mask(keep_bits)
            want, got = ([h, lo & mask] for h, lo in (halves(w0), halves(w0)))
            uniq, agg = reference.aggregate_duplicates(idx, grads[bag_ids])
            master = ((want[0][uniq].astype(np.uint32) << 16) | want[1][uniq]).view(np.float32)
            want[0][uniq], lo = halves(master + agg)
            want[1][uniq] = lo & mask
            dispatch.split_scatter_add(*got, keep_bits, idx, grads, offsets=offsets)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @given(
        n=st.sampled_from([0, 1, 15, 16, 17, 130]),
        lr=st.sampled_from([0.05, 1.0, 1e-3, 3.0]),
        special_share=st.sampled_from([0.0, 0.05, 0.9]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None, **TIERED)
    def test_dense_steps(self, n, lr, special_share, seed):
        """``lr * g`` rounds to FP32 before it is subtracted: one
        element at a time on NumPy scalars, no FMA to hide the rounding."""
        rng = np.random.default_rng(seed)
        w0 = special_values(rng, (n,), special_share)
        g = special_values(rng, (n,), special_share)
        scratch = np.empty(max(n, 1), np.float32)
        want = np.array([w - np.float32(lr) * x for w, x in zip(w0, g)], dtype=np.float32)
        got = w0.copy()
        dispatch.sgd_step(got, g, lr, scratch)
        np.testing.assert_array_equal(bits(got), bits(want))

        for keep_bits in (16, 8):
            hi, lo = halves(w0)
            lo &= row_kernels.lo_mask(keep_bits)
            values = (hi.astype(np.uint32) << 16).view(np.float32)
            master = (values.view(np.uint32) | lo).view(np.float32)
            stepped = np.array(
                [w - np.float32(lr) * x for w, x in zip(master, g)], dtype=np.float32
            )
            want_hi, want_lo = halves(stepped)
            dispatch.split_sgd_step(values, lo, g, lr, keep_bits, scratch)
            np.testing.assert_array_equal(values.view(np.uint32) >> 16, want_hi)
            np.testing.assert_array_equal(lo, want_lo & row_kernels.lo_mask(keep_bits))
            assert not (values.view(np.uint32) & 0xFFFF).any()


@needs_native
class TestShardedEqualsUnsharded:
    """Each output row has one owner, who folds it in input order."""

    @pytest.fixture(autouse=True)
    def low_thresholds(self, monkeypatch):
        monkeypatch.setattr(threads, "PARALLEL_MIN_SEGMENTS", 1)
        monkeypatch.setattr(threads, "PARALLEL_MIN_ELEMS", 1)

    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    @pytest.mark.parametrize("table_rows", [23, 64])  # 2, 3 and 7 do not divide 23
    def test_all_three_sharded_kernels(self, rng, threads, table_rows):
        dim = 16
        w0 = special_values(rng, (table_rows, dim), 0.05)
        idx, offsets, bag_ids = lookups(rng, table_rows, 40, 60)  # runs of ~50 per row
        grads = special_values(rng, (40, dim), 0.05)
        pool = WorkerPool(threads)
        ranges = []
        run_sharded = pool.run_sharded
        pool.run_sharded = lambda fn, work: run_sharded(
            lambda lo, hi, tid: (ranges.append((lo, hi)), fn(lo, hi, tid)), work
        )
        try:
            want, got = w0.copy(), w0.copy()
            reference.scatter_add(want, idx, grads[bag_ids])
            assert native.scatter_add_exact(got, idx, grads, offsets, pool=pool)
            np.testing.assert_array_equal(bits(got), bits(want))

            got = native.pool_rows(w0, idx, offsets, pool=pool)
            np.testing.assert_array_equal(
                bits(got), bits(reference.segment_sum(w0[idx], offsets))
            )

            sharded, whole = halves(w0), halves(w0)
            assert native.split_scatter_add(*sharded, 16, idx, grads, offsets, pool=pool)
            assert native.split_scatter_add(*whole, 16, idx, grads, offsets, pool=WorkerPool(1))
            np.testing.assert_array_equal(np.stack(sharded), np.stack(whole))
            if threads > 1:  # the scatter's shards are Alg. 4's row ranges
                assert sorted(ranges[:threads]) == [
                    row_range_for_thread(table_rows, t, threads) for t in range(threads)
                ]
                assert len(ranges) == 3 * threads
        finally:
            pool.shutdown()


@needs_native
class TestTheOneEntryRefusesWhatItCannotRepresent:
    """A refusal touches nothing, and the dispatch then behaves exactly
    as the NumPy tier does on the same arguments."""

    W = np.arange(24, dtype=np.float32).reshape(6, 4)
    IDX = np.array([1, 5, 1], dtype=np.int64)
    D = np.ones((3, 4), dtype=np.float32)

    SCATTERS = {
        "float64 weight": lambda s: (s.W.astype(np.float64), s.IDX, s.D, None),
        "strided weight": lambda s: (np.zeros((6, 8), np.float32)[:, ::2], s.IDX, s.D, None),
        "fortran weight": lambda s: (np.asfortranarray(s.W), s.IDX, s.D, None),
        "1-d weight": lambda s: (s.W.reshape(-1), s.IDX, s.D, None),
        "int32 ids": lambda s: (s.W.copy(), s.IDX.astype(np.int32), s.D, None),
        "strided ids": lambda s: (s.W.copy(), np.array([1, 0, 5, 0, 1, 0])[::2], s.D, None),
        "2-d ids": lambda s: (s.W.copy(), s.IDX.reshape(1, 3), s.D, None),
        "a list of ids": lambda s: (s.W.copy(), [1, 5, 1], s.D, None),
        "negative id": lambda s: (s.W.copy(), np.array([1, -1, 1]), s.D, None),
        "id == rows": lambda s: (s.W.copy(), np.array([1, 6, 1]), s.D, None),
        "float64 deltas": lambda s: (s.W.copy(), s.IDX, s.D.astype(np.float64), None),
        "narrow deltas": lambda s: (s.W.copy(), s.IDX, s.D[:, :3], None),
        "too few deltas": lambda s: (s.W.copy(), s.IDX, s.D[:2], None),
        "offsets past the deltas": lambda s: (s.W.copy(), s.IDX, s.D[:2], np.array([0, 1, 2, 3])),
        "decreasing offsets": lambda s: (s.W.copy(), s.IDX, s.D, np.array([0, 2, 1, 3])),
        "short offsets": lambda s: (s.W.copy(), s.IDX, s.D[:2], np.array([0, 1, 2])),
        "int32 offsets": lambda s: (s.W.copy(), s.IDX, s.D, np.arange(4, dtype=np.int32)),
    }

    @pytest.mark.parametrize("what", sorted(SCATTERS))
    def test_scatter(self, what):
        weight, idx, deltas, offsets = self.SCATTERS[what](self)
        before = np.array(weight, copy=True)
        assert native.scatter_add_exact(weight, idx, deltas, offsets) is False
        np.testing.assert_array_equal(weight, before)
        if weight.ndim != 2:
            return  # no tier takes a flat table
        if "weight" not in what:  # ids and deltas are checked alike for Split-BF16 rows
            hi, lo = halves(np.zeros((6, 4), np.float32))
            assert native.split_scatter_add(hi, lo, 16, idx, deltas, offsets) is False
            assert not hi.any() and not lo.any()
        outcomes = []
        for scatter in (dispatch.scatter_add_exact, row_kernels.scatter_add):
            w = np.array(before, copy=True, order="K")
            try:
                scatter(w, idx, deltas, offsets)
                outcomes.append(bits(w).tolist())
            except Exception as exc:  # noqa: BLE001 - whatever NumPy raises, both must
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]

    def test_overlapping_weight_and_deltas(self):
        w = self.W.copy()
        assert native.scatter_add_exact(w, np.array([0, 1, 2]), w[3:], None) is False
        np.testing.assert_array_equal(w, self.W)

    @staticmethod
    def laid_over(shape, dtype, ids):
        """``(table, ids)``: a zeroed table whose first bytes are ``ids``."""
        buf = np.zeros(int(np.prod(shape)) * np.dtype(dtype).itemsize, np.uint8)
        over = buf[: 8 * len(ids)].view(np.int64)
        over[:] = ids
        return buf.view(dtype).reshape(shape), over

    def test_scatter_weight_over_the_bytes_of_indices(self):
        weight, idx = self.laid_over((6, 4), np.float32, [1, 5, 1])
        before = weight.copy()
        assert native.scatter_add_exact(weight, idx, self.D) is False
        np.testing.assert_array_equal(bits(weight), bits(before))

    def test_scatter_weight_over_the_bytes_of_offsets(self):
        weight, offsets = self.laid_over((6, 4), np.float32, [0, 2, 3])
        before = weight.copy()
        assert native.scatter_add_exact(weight, self.IDX, self.D[:2], offsets) is False
        np.testing.assert_array_equal(bits(weight), bits(before))

    def test_split_hi_over_the_bytes_of_indices(self):
        hi, idx = self.laid_over((6, 4), np.uint16, [1, 5, 1])
        lo, before = np.zeros((6, 4), np.uint16), hi.copy()
        assert native.split_scatter_add(hi, lo, 16, idx, self.D) is False
        np.testing.assert_array_equal(hi, before)
        assert not lo.any()

    def test_a_read_only_array_is_never_written(self):
        w = self.W.copy()
        w.flags.writeable = False
        assert native.scatter_add_exact(w, self.IDX, self.D) is False
        with pytest.raises(ValueError, match="read-only"):
            dispatch.scatter_add_exact(w, self.IDX, self.D)
        np.testing.assert_array_equal(w, self.W)
        assert native.sgd_step(w.reshape(-1), np.ones(24, np.float32), 0.1) is False
        hi, lo = halves(self.W)
        hi.flags.writeable = False
        assert native.split_scatter_add(hi, lo, 16, self.IDX, self.D) is False
        assert native.pool_rows(w, self.IDX, np.array([0, 3])) is not None  # reading is fine

    @pytest.mark.parametrize(
        "offsets",
        [[0, 2], [1, 3], [0, 3, 2, 3], [], np.array([0, 3], dtype=np.int32), [[0, 3]]],
        ids=["short", "late", "decreasing", "empty", "int32", "2-d"],
    )
    def test_pooled_forward_offsets(self, offsets):
        offsets = np.asarray(offsets) if not isinstance(offsets, np.ndarray) else offsets
        assert native.pool_rows(self.W, self.IDX, offsets) is None

    def test_pooled_forward_sources_and_ids(self):
        off = np.array([0, 3])
        assert native.pool_rows(self.W.astype(np.float64), self.IDX, off) is None
        assert native.pool_rows(self.W[:, ::2], self.IDX, off) is None
        assert native.pool_rows(self.W, np.array([1, 6, 1]), off) is None
        assert native.pool_rows(self.W, self.IDX.astype(np.int32), off) is None
        assert native.pool_rows(halves(self.W)[0], self.IDX, off) is not None

    def test_dense_steps(self):
        v, g = np.ones(8, np.float32), np.ones(8, np.float32)
        lo = np.zeros(8, np.uint16)
        for values, grads in ((v, g[:7]), (v.reshape(2, 4), g), (v.astype(np.float64), g),
                              (v[::2], g[::2]), (v, v), (v[:6], v[2:])):
            before = np.array(values, copy=True)
            assert native.sgd_step(values, grads, 0.5) is False
            assert native.split_sgd_step(values, lo[: values.size], grads, 0.5, 16) is False
            np.testing.assert_array_equal(values, before)
        assert native.split_sgd_step(v, lo[:7], g, 0.5, 16) is False
        assert native.split_sgd_step(v, lo.astype(np.int16), g, 0.5, 16) is False
        assert (v == 1).all() and not lo.any()

    @staticmethod
    def same_outcome(kernel, *args) -> None:
        """The dispatch and the NumPy tier return or raise alike."""
        outcomes = []
        for module in (dispatch, synth):
            try:
                outcomes.append(np.asarray(getattr(module, kernel)(*args)).tobytes())
            except Exception as exc:  # noqa: BLE001 - whatever NumPy raises, both must
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]

    X = np.array([0.5, 1.0, 3.7, 49.9, 50.0, 61.0])
    ZIPF = {
        "float32 draws": lambda s: (s.X.astype(np.float32), 50),
        "strided draws": lambda s: (np.repeat(s.X, 2)[::2], 50),
        "2-d draws": lambda s: (s.X.reshape(2, 3), 50),
        "a list of draws": lambda s: (s.X.tolist(), 50),
        "no items": lambda s: (s.X, 0),
        "a float item count": lambda s: (s.X, 50.0),
        "past the scramble bound": lambda s: (s.X, synth.MAX_SCRAMBLE_ITEMS + 1),
    }

    @pytest.mark.parametrize("what", sorted(ZIPF))
    @pytest.mark.parametrize("scramble", [False, True])
    def test_zipf_ids(self, what, scramble):
        x, n_items = self.ZIPF[what](self)
        assert native.zipf_ids(x, n_items, scramble) is None
        self.same_outcome("zipf_ids", x, n_items, scramble)

    OFF = np.array([0, 2, 2, 3])
    TEACHER = {
        "int32 ids": lambda s: (s.IDX.astype(np.int32), s.OFF, 5, np.zeros(3)),
        "strided ids": lambda s: (np.repeat(s.IDX, 2)[::2], s.OFF, 5, np.zeros(3)),
        "float32 score": lambda s: (s.IDX, s.OFF, 5, np.zeros(3, np.float32)),
        "strided score": lambda s: (s.IDX, s.OFF, 5, np.zeros(6)[::2]),
        "read-only score": lambda s: (s.IDX, s.OFF, 5, np.zeros(3)),
        "short offsets": lambda s: (s.IDX, np.array([0, 2, 2]), 5, np.zeros(2)),
        "late offsets": lambda s: (s.IDX, np.array([1, 2, 2, 3]), 5, np.zeros(3)),
        "decreasing offsets": lambda s: (s.IDX, np.array([0, 2, 1, 3]), 5, np.zeros(3)),
        "int32 offsets": lambda s: (s.IDX, s.OFF.astype(np.int32), 5, np.zeros(3)),
        "a score per bag too many": lambda s: (s.IDX, s.OFF, 5, np.zeros(4)),
        "a negative mix": lambda s: (s.IDX, s.OFF, -5, np.zeros(3)),
    }

    @pytest.mark.parametrize("what", sorted(TEACHER))
    def test_teacher_bags(self, what):
        ids, offsets, mix, score = self.TEACHER[what](self)
        score.flags.writeable = what != "read-only score"
        assert native.teacher_bags(ids, offsets, mix, 7, 0.5, score) is False
        assert not score.any()
        self.same_outcome("teacher_bags", ids, offsets, mix, 7, 0.5, score.copy())

    def test_teacher_score_overlapping_the_ids(self):
        ids = np.zeros(3, dtype=np.int64)
        score = ids[2:].view(np.float64)
        assert native.teacher_bags(ids, np.array([0, 3]), 5, 7, 0.5, score) is False
        assert not ids.any()

    def test_split_halves_must_be_two_arrays_of_one_shape(self):
        hi, lo = halves(self.W)
        assert native.split_scatter_add(hi, lo[:5], 16, self.IDX, self.D) is False
        assert native.split_scatter_add(hi, hi, 16, self.IDX, self.D) is False
        assert native.split_scatter_add(hi, lo.astype(np.uint32), 16, self.IDX, self.D) is False


#: Valid arguments of each entry beyond its contract's arrays: those of
#: its first line in the self-check.
SCALARS = {entry: scalars for _, entry, scalars, *_ in reversed(LINES)}
OTHER_DTYPE = {np.float32: np.float64, np.float64: np.float32, np.int64: np.int32, np.uint16: np.int16}


def arrays_of(args: dict) -> list:
    """Every array among ``args``, each of a list too."""
    return [a for v in args.values() if v is not None for a in (v if isinstance(v, list) else [v])]


def clause_breaks(entry: str, args: dict) -> list[tuple]:
    """Every way to break exactly one clause of ``entry``'s contract on
    the valid ``args``: ``(kind, clause, detail)``."""
    clauses = native.CONTRACTS[entry]
    present = [c for c in clauses if args[c.name] is not None]
    named = [size for c in present for size, _, _ in c.shape]
    named += [c.rises_to for c in present if c.rises_to] + [c.each for c in present if c.each]
    named += [s for c in clauses if args[c.name] is None and c.rises_to for s in (c.shape[0][0], c.rises_to)]
    out = [("zero", None, size) for c in present for size, _, least in c.shape if least]
    for c in present:
        out += [("dtype", c, None), ("rank", c, None), ("strided", c, None)]
        out += [("fortran", c, None)] if len(c.shape) > 1 else []
        out += [("read-only", c, None)] if c.written else []
        out += [("id", c, at) for at in ("-1", "bound")] if c.below else []
        out += [("offsets", c, how) for how in ("late", "short", "decreasing")] if c.rises_to else []
        out += [("overlap", c, other) for other in present if c.written and other is not c]
        axes = [*enumerate(size for size, _, _ in c.shape), *([("each", c.each)] if c.each else [])]
        shared = [axis for axis, size in axes if named.count(size) > 1]
        out += [("size", c, axis, grow) for axis in shared for grow in (0, 1)]
    return out


def broken(args: dict, sizes: dict, brk: tuple) -> dict:
    """The valid ``args`` (drawn at ``sizes``) with the one clause
    ``brk`` names broken, in the last array of a list."""
    kind, clause, detail, *grow = brk
    if kind in ("none", "zero"):
        return args

    def one(name):  # (the array, a setter for its place)
        held = args[name]
        if isinstance(held, list):
            return held[-1], lambda new: held.__setitem__(-1, new)
        return held, lambda new: args.__setitem__(name, new)

    a, put = one(clause.name)
    if kind == "dtype":
        put(a.astype(OTHER_DTYPE[a.dtype.type]))
    elif kind == "rank":
        put(a[np.newaxis])
    elif kind == "strided":
        put(np.repeat(a, 2, axis=-1)[..., ::2])
    elif kind == "fortran":
        put(np.asfortranarray(a))
    elif kind == "read-only":
        a.flags.writeable = False
    elif kind == "id":
        a[a.size // 2] = -1 if detail == "-1" else sizes[clause.below]
    elif kind == "offsets" and detail == "late":
        a[a < 1] = 1
    elif kind == "offsets":
        a[-1 if detail == "short" else 1] = a[-1] - 1 if detail == "short" else a[2] + 1
    elif kind == "size" and detail == "each":
        held = args[clause.name]
        args[clause.name] = held + [held[-1].copy()] if grow[0] else held[:-1]
    elif kind == "size":
        extent = a.shape[detail]
        keep = np.minimum(np.arange(extent + 1), extent - 1) if grow[0] else np.arange(extent - 1)
        put(np.take(a, keep, axis=detail))
    elif kind == "overlap":
        other, put_other = one(detail.name)
        buf = np.zeros(max(a.nbytes, other.nbytes), np.uint8)
        laid = [buf[: x.nbytes].view(x.dtype).reshape(x.shape) for x in (a, other)]
        laid[0][...], laid[1][...] = a, other
        put(laid[0])
        put_other(laid[1])
    return args


def dispatched(entry: str):
    """``entry``'s dispatch, called with the entry's arguments as its
    NumPy twin is."""
    twin, fn = NUMPY_TIER[entry], getattr(dispatch, entry)
    if not isinstance(twin, partial):
        return fn
    return partial(fn, **twin.keywords)  # the twin, and so the dispatch, takes a scratch


def outcome(fn, args: dict, scalars: dict) -> tuple:
    """What ``fn`` returns or raises on a copy of ``scalars`` (a generator
    draws from where the line's starts), and every argument's bytes after."""
    try:
        got = fn(**args, **copy.deepcopy(scalars))
        result = [np.asarray(a).tobytes() for a in (got if isinstance(got, tuple) else (got,))]
    except Exception as exc:  # noqa: BLE001 - whatever the NumPy tier raises, both must
        result = type(exc)
    return result, [a.tobytes() for a in arrays_of(args)]


@needs_native
class TestTheContractRefusesEachBrokenClause:
    """A valid call drawn from each entry's contract, then every way of
    breaking exactly one clause: the entry declines and writes nothing,
    and the dispatch returns or raises exactly what the NumPy tier does."""

    @pytest.mark.parametrize("entry", sorted(native.CONTRACTS))
    @given(
        sizes=st.fixed_dictionaries(
            {k: st.integers(2, 5) for k in ("rows", "dim", "n", "bags", "s", "e")}
        ),
        absent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_clause_broken_in_turn(self, entry, sizes, absent, seed):
        if entry.startswith("dot") and not native.blas_agrees():
            pytest.skip("this host's BLAS computes other bits: the interaction entries decline")
        if entry == "uniform_fill" and not native.pcg64_agrees():
            pytest.skip("the C draw gives other bits than NumPy's here: the entry declines")
        sizes.update(v=sizes["s"] + 1, w=sizes["e"] + interaction.pairs(sizes["s"] + 1))
        sizes["bags"] = sizes["n"] if absent else sizes["bags"]  # absent offsets: a bag a look-up

        def case(brk: tuple) -> dict:
            at = {**sizes, brk[2]: 0} if brk[0] == "zero" else sizes
            args = draw(entry, np.random.default_rng(seed), at)
            args.update({c.name: None for c in native.CONTRACTS[entry] if absent and c.optional})
            return broken(args, at, brk)

        scalars = SCALARS[entry]
        entry_fn = getattr(native, entry)
        valid = case(("none", None, None))
        ran = entry_fn(**valid, **copy.deepcopy(scalars))
        assert ran is not None and ran is not False
        for brk in clause_breaks(entry, valid):
            args = case(brk)
            before = [a.tobytes() for a in arrays_of(args)]
            declined = entry_fn(**args, **copy.deepcopy(scalars))
            assert declined is None or declined is False, brk
            assert [a.tobytes() for a in arrays_of(args)] == before, brk
            tiers = (dispatched(entry), NUMPY_TIER[entry])
            got, want = (outcome(fn, case(brk), scalars) for fn in tiers)
            assert got == want, brk


@needs_native
class TestStorageTheNativeTierMustTake:
    def test_a_file_backed_slab_and_its_row_views(self, tmp_path, rng):
        """The tiered slab is an ``np.memmap`` seen as a plain array and
        a table is a ``rows_view`` slice of it: both are C-contiguous,
        writeable FP32 rows."""
        slab = EmbeddingBag(40, 8, alloc=lambda shape, dtype: file_backed(shape, dtype, str(tmp_path)))
        slab.weight[...] = rng.standard_normal((40, 8)).astype(np.float32)
        view = slab.rows_view(10, 30)
        idx = rng.integers(0, 20, size=50, dtype=np.int64)
        deltas = rng.standard_normal((50, 8)).astype(np.float32)
        for array in (slab.weight, view.weight, np.asarray(slab.weight).view(np.memmap)):
            want = np.array(array)
            reference.scatter_add(want, idx, deltas)
            assert native.scatter_add_exact(array, idx, deltas)
            np.testing.assert_array_equal(bits(array), bits(want))
            got = native.pool_rows(array, idx, np.array([0, 20, 50]))
            np.testing.assert_array_equal(
                bits(got), bits(reference.segment_sum(want[idx], np.array([0, 20, 50])))
            )
        np.testing.assert_array_equal(slab.weight[10:30], view.weight)
