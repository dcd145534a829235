"""A batch's look-ups are checked once, where they enter, and never again.

Three things are pinned here.  *The error*: every way a raw id or offsets
array can be wrong raises one :class:`BadLookup` -- an ``IndexError``
and a ``ValueError`` -- naming the table, the field and the first bad
position, through a bag and through a model alike; nothing is truncated.
*The Lookup*: its arrays refuse writes, nothing but the checker builds
one, and one whose bound lies past a bag's rows is checked again.  *One
pass*: a training step scans each table's ids once, forward and update
together, on both kernel tiers.
"""

import types

import numpy as np
import pytest

from repro.core import embedding
from repro.core.embedding import EmbeddingBag, SplitEmbeddingBag
from repro.core.model import DLRM
from repro.core.optim import SGD, SplitSGD
from repro.core.update import FusedBackwardUpdate, RaceFreeUpdate
from repro.kernels import lookup, native
from repro.kernels.lookup import BadLookup, Lookup, check_lookup
from repro.kernels.native import build
from repro.tiering.store import apply_tiering
from tests.conftest import random_batch, tiny_config

IDX = np.array([3, 7, 7, 1], dtype=np.int64)
OFF = np.array([0, 2, 4], dtype=np.int64)

#: (what, indices, offsets, field, position): one way each field can be wrong.
BAD = [
    ("negative id", [3, -1, 7, 1], OFF, "indices", 1),
    ("id == rows", [3, 7, 10, 1], OFF, "indices", 2),
    ("id past rows", [3, 7, 7, 2**40], OFF, "indices", 3),
    ("float ids", [0.5, 1.9, 9.99, 1.0], OFF, "indices", 0),
    ("bool ids", [True, False, True, True], OFF, "indices", 0),
    ("2-d ids", [[3, 7], [7, 1]], OFF, "indices", None),
    ("float offsets", IDX, [0, 2, 3.7], "offsets", 0),
    ("offsets not from 0", IDX, [1, 2, 4], "offsets", 0),
    ("decreasing offsets", IDX, [0, 3, 2, 4], "offsets", 2),
    ("short offsets", IDX, [0, 2, 3], "offsets", 2),
    ("no offsets", IDX, [], "offsets", None),
    ("2-d offsets", IDX, [[0, 2, 4]], "offsets", None),
]


def assert_names(err: BadLookup, table: str, field: str, position) -> None:
    assert isinstance(err, IndexError) and isinstance(err, ValueError)
    assert (err.table, err.field, err.position) == (table, field, position)
    where = field if position is None else f"{field}[{position}]"
    assert str(err).startswith(f"{table}: {where} ")


class TestOneTypedError:
    @pytest.mark.parametrize("what,indices,offsets,field,position", BAD, ids=[b[0] for b in BAD])
    @pytest.mark.parametrize("bag_cls", [EmbeddingBag, SplitEmbeddingBag])
    def test_a_bag(self, bag_cls, what, indices, offsets, field, position):
        table = bag_cls(10, 4, rng=np.random.default_rng(0))
        before = table.state_dict()
        for call in (
            lambda: table.forward(indices, offsets),
            lambda: table.backward(np.ones((2, 4), np.float32), indices, offsets),
            lambda: FusedBackwardUpdate().apply_fused(table, np.ones((2, 4), np.float32),
                                                      indices, offsets, 0.1),
        ):
            with pytest.raises(BadLookup) as info:
                call()
            assert_names(info.value, f"{bag_cls.__name__} of 10 rows", field, position)
        for key, value in table.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    @pytest.mark.parametrize("what,indices,offsets,field,position", BAD, ids=[b[0] for b in BAD])
    def test_a_model_names_the_table(self, what, indices, offsets, field, position):
        cfg = tiny_config(num_tables=3, rows=10, dim=4, minibatch=2)
        model = DLRM(cfg, seed=0)
        batch = random_batch(cfg, 2)  # two bags a table, as OFF holds
        batch.indices[1], batch.offsets[1] = indices, offsets
        for call in (lambda: model.forward(batch), lambda: model.infer(batch)):
            with pytest.raises(BadLookup) as info:
                call()
            assert info.value.table == "table 1" and info.value.field == field

    def test_float_ids_and_offsets_are_refused_not_truncated(self):
        table = EmbeddingBag(10, 4, rng=np.random.default_rng(0))
        with pytest.raises(BadLookup, match="float64"):
            table.forward([0.5, 1.9, 9.99], [0, 2, 3.7])
        with pytest.raises(BadLookup, match="float64"):
            table.forward([0, 1, 9], [0, 2, 3.0])
        with pytest.raises(BadLookup, match="float64"):
            table.gather([0.5])
        with pytest.raises(BadLookup, match="float64"):
            table.scatter_add_rows([0.5], np.ones((1, 4), np.float32))

    def test_empty_lists_and_other_integer_types_are_look_ups(self):
        table = EmbeddingBag(10, 4, rng=np.random.default_rng(0))
        assert table.forward([], [0, 0]).shape == (1, 4)
        want = table.forward(IDX, OFF)
        for dtype in (np.int32, np.uint16, np.uint64):
            np.testing.assert_array_equal(table.forward(IDX.astype(dtype), OFF.astype(dtype)), want)


class TestTheLookup:
    def test_its_arrays_refuse_writes(self):
        look = check_lookup(IDX, OFF, 10)
        for a in (look.ids, look.offsets, look.lengths):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 5
        with pytest.raises(AttributeError):
            look.ids = np.zeros(4, np.int64)
        with pytest.raises(AttributeError):
            look.bound = 10**9

    def test_its_arrays_are_its_own(self):
        idx, off = IDX.copy(), OFF.copy()
        look = check_lookup(idx, off, 10)
        idx[0], off[1] = -1, 9
        np.testing.assert_array_equal(look.ids, IDX)
        np.testing.assert_array_equal(look.offsets, OFF)

    def test_only_the_checker_builds_one(self):
        with pytest.raises(TypeError):
            Lookup(IDX, OFF, np.diff(OFF), 10)

    def test_what_it_holds(self):
        look = check_lookup(IDX, OFF, 10)
        assert len(look) == 4 and look.bags == 2 and look.bound == 10
        np.testing.assert_array_equal(look.lengths, [2, 2])
        assert check_lookup(look, None, 10) is look and check_lookup(look, None, 11) is look

    def test_a_bound_past_the_bags_rows_is_checked_again(self, monkeypatch):
        calls = []
        real = lookup.check_ids
        monkeypatch.setattr(lookup, "check_ids", lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        look = check_lookup(IDX, OFF, 100)
        small = EmbeddingBag(8, 4, rng=np.random.default_rng(0))
        small.forward(look)  # every id < 8: rechecked, then pooled
        assert calls == [100, 8]
        with pytest.raises(BadLookup) as info:
            EmbeddingBag(7, 4, rng=np.random.default_rng(0)).forward(look)
        assert info.value.position == 1  # id 7 of a 7-row bag
        with pytest.raises(TypeError):
            small.forward(look, OFF)  # a Lookup brings its own offsets

    @pytest.mark.skipif(build.library() is None, reason="native tier unavailable")
    def test_the_native_entries_scan_a_lookup_whose_bound_is_past_their_rows(self, range_passes):
        look, ones = check_lookup(IDX, OFF, 100), np.ones((2, 4), np.float32)
        range_passes.clear()
        assert native.scatter_add_exact(np.zeros((100, 4), np.float32), look, ones)
        assert range_passes == []  # under its bound: trusted
        assert native.scatter_add_exact(np.zeros((8, 4), np.float32), look, ones)
        assert native.scatter_add_exact(np.zeros((7, 4), np.float32), look, ones) is False
        assert range_passes == [("repro_ids_in_range", 8), ("repro_ids_in_range", 7)]

    def test_fused_parts_are_checked_against_their_own_rows(self):
        with pytest.raises(BadLookup) as info:
            lookup.fuse([("a", [0, 4], [0, 2], 5, None), ("b", [5, 0], [0, 1, 2], 5, None)])
        assert (info.value.table, info.value.position) == ("b", 0)
        look = lookup.fuse([("a", [0, 4], [0, 2], 5, None), ("b", [4, 0], [0, 1, 2], 5, None)])
        np.testing.assert_array_equal(look.ids, [0, 4, 9, 5])
        np.testing.assert_array_equal(look.offsets, [0, 2, 3, 4])
        assert look.bound == 10 and look.bags == 3


@pytest.fixture
def range_passes(monkeypatch):
    """Every range pass over an id vector: the checker's, under each name
    it is imported by, and the native tier's ``repro_ids_in_range``."""
    passes = []
    real = lookup.check_ids

    def spy(indices, rows, *args, **kwargs):
        passes.append(("check_ids", rows))
        return real(indices, rows, *args, **kwargs)

    monkeypatch.setattr(lookup, "check_ids", spy)
    monkeypatch.setattr(embedding, "check_ids", spy)
    lib = build.library()
    if lib is not None:
        scan = lib.repro_ids_in_range

        def native_spy(address, n, bound):
            passes.append(("repro_ids_in_range", bound))
            return scan(address, n, bound)

        monkeypatch.setattr(lib, "repro_ids_in_range", native_spy)
    return passes


@pytest.mark.usefixtures("kernel_tier")
@pytest.mark.parametrize(
    "storage,opt_cls,strategy,tiered",
    [
        ("fp32", SGD, FusedBackwardUpdate, ()),
        ("fp32", SGD, RaceFreeUpdate, ()),
        ("split_bf16", SplitSGD, FusedBackwardUpdate, ()),
        ("fp32", SGD, FusedBackwardUpdate, (0, 2)),
    ],
    ids=["fused", "racefree", "split_bf16", "tiered"],
)
def test_a_step_scans_each_tables_ids_once(range_passes, tmp_path, storage, opt_cls, strategy, tiered):
    cfg = tiny_config(num_tables=3, rows=40, dim=16, lookups=4)
    model = DLRM(cfg, seed=0, storage=storage)
    plans = {t: types.SimpleNamespace(mode="hot_cold", hot_rows=np.arange(0, 40, 3)) for t in tiered}
    apply_tiering(model, plans, cold_dir=str(tmp_path))
    opt = opt_cls(lr=0.05, strategy=strategy())
    opt.register(model.parameters())
    for seed in range(3):
        range_passes.clear()
        model.train_step(random_batch(cfg, 8, seed=seed, ragged=seed == 2), opt)
        assert range_passes == [("check_ids", 40)] * 3  # one a table, against its own rows
