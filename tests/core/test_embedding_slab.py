"""The embedding slab: one bag per model, the tables row-range views.

Contract under test: a model built over the slab is, bit for bit, the
model whose tables are stand-alone bags taking the per-table path --
same seeded init, same losses, same weights -- and nothing ever rebinds
a table's storage away from the slab.
"""

import dataclasses
import tracemalloc
import types

import numpy as np
import pytest

from repro.kernels import rows as row_kernels
from repro.core.embedding import EmbeddingBag, SplitEmbeddingBag
from repro.core.model import DLRM
from repro.core.optim import SGD, SparseAdagrad, SplitSGD
from repro.core.update import make_strategy, uses_fused_dispatch
from repro.data.criteo import SyntheticCriteoDataset
from repro.kernels.workspace import aligned_empty
from repro.tiering.store import build_tiered
from repro.util import rng_from

from tests.conftest import random_batch, split_fp32, state_digest, tiny_config, truncate_lo_bits

#: (optimizer, strategy, storage): plain SGD through the fused and the
#: materialising dispatch, Split-SGD, and an optimizer that overrides
#: ``step_sparse`` (it keeps receiving table views).
COMBOS = {
    "sgd+fused": (SGD, "fused", "fp32"),
    "sgd+racefree": (SGD, "racefree", "fp32"),
    "split_sgd+fused": (SplitSGD, "fused", "split_bf16"),
    "adagrad": (SparseAdagrad, "racefree", "fp32"),
}


def arrays(table):
    """A bag's storage arrays; a tiered view's are its store's."""
    table = getattr(table, "store", table)
    return [getattr(table, name) for name in table._arrays]


class PerTableDLRM(DLRM):
    """The construction the slab replaced, kept here as the reference the
    slab is pinned against: every table a stand-alone bag, one forward
    and one update per table.  ``src/`` has no such path any more."""

    def _fuse(self, batch):
        return batch  # nothing to fuse: the per-table look-up is the batch

    _slab_lookup = _fuse

    def _embedding_lookup(self, batch):
        return {
            t: self.tables[t].forward(batch.indices[t], batch.offsets[t]) for t in self.table_ids
        }

    def sparse_update(self, dembs, batch, opt, **span):
        for t in self.table_ids:
            bag, indices, offsets = self.tables[t], batch.indices[t], batch.offsets[t]
            if uses_fused_dispatch(opt):
                opt.strategy.apply_fused(bag, dembs[t], indices, offsets, opt.lr)
            else:
                opt.step_sparse(bag, bag.backward(dembs[t], indices, offsets))


def detach_tables(model: DLRM, seed: int | None = None) -> None:
    """Turn ``model`` into the per-table construction: every table a
    stand-alone bag -- drawn from its own seeded stream, or (no seed)
    holding what the model's table holds now -- and no slab."""
    model.__class__ = PerTableDLRM
    for t, view in list(model.tables.items()):
        kw = {"lo_bits": view.lo_bits} if model.storage == "split_bf16" else {}
        if seed is None:
            alone = type(view)(view.rows, view.dim, rng=np.random.default_rng(0), **kw)
            alone.load_state_dict(view.state_dict())
        else:
            alone = type(view)(view.rows, view.dim, rng=rng_from(seed, "table", t), **kw)
        model._tables[t] = alone
    model.slab = None


def mixed_cfg():
    """Tables of different heights (one of cardinality 3), so a wrong
    row offset cannot go unnoticed."""
    cfg = tiny_config(num_tables=5, rows=40, dim=8, lookups=4)
    return dataclasses.replace(cfg, table_rows=(40, 3, 57, 8, 21))


def filled(cls, rows, dim=4, alloc=aligned_empty):
    """A model's construction on its own: one slab of ``cls`` over
    ``rows`` tables, allocated once, then each table a ``rows_view`` of
    it drawn in place from ``default_rng(t)``."""
    slab, views, start = cls(sum(rows), dim, alloc=alloc), [], 0
    for t, r in enumerate(rows):
        views.append(slab.rows_view(start, start + r))
        views[-1].draw(np.random.default_rng(t))
        start += r
    return slab, views


class TestAllocateThenFill:
    @pytest.mark.parametrize("cls", [EmbeddingBag, SplitEmbeddingBag])
    def test_views_hold_the_tables_bits_and_share_the_slab(self, cls):
        rows = [7, 3, 12]
        alone = [cls(r, 4, rng=np.random.default_rng(t)) for t, r in enumerate(rows)]
        slab, views = filled(cls, rows)
        assert type(slab) is cls and slab.rows == 22
        start = 0
        for table, view in zip(alone, views):
            assert type(view) is cls and (view.rows, view.dim) == (table.rows, 4)
            for mine, theirs, whole in zip(arrays(view), arrays(table), arrays(slab)):
                np.testing.assert_array_equal(mine, theirs)
                assert np.shares_memory(mine, whole)
                np.testing.assert_array_equal(mine, whole[start : start + table.rows])
            start += table.rows

    def test_a_write_through_either_side_is_seen_by_the_other(self):
        slab, (a, b) = filled(EmbeddingBag, [5, 5], dim=3)
        b.scatter_add_rows(np.array([1, 1]), np.ones((2, 3), np.float32))
        np.testing.assert_array_equal(slab.weight[6], b.weight[1])
        slab.load_state_dict({"weight": np.full((10, 3), 2.0, np.float32)})
        assert (a.weight == 2.0).all() and (b.weight == 2.0).all()

    def test_no_tables_no_slab(self):
        with pytest.raises(ValueError, match="positive"):
            EmbeddingBag(0, 3, alloc=aligned_empty)
        assert DLRM(mixed_cfg(), seed=1, table_ids=[]).slab is None

    @pytest.mark.parametrize("cls", [EmbeddingBag, SplitEmbeddingBag])
    def test_a_fill_writes_its_own_rows_and_no_others(self, cls):
        """The slab arrives unfilled (all bytes 0xFF here: no drawn row
        is that); a table's draw fills exactly its rows."""

        def poisoned(shape, dtype):
            a = np.empty(shape, dtype)
            a.view(np.uint8)[...] = 0xFF
            return a

        slab = cls(12, 3, alloc=poisoned)
        slab.rows_view(4, 9).draw(np.random.default_rng(0))
        for whole in arrays(slab):
            poisoned_rows = (whole.view(np.uint8) == 0xFF).all(axis=1)
            np.testing.assert_array_equal(np.flatnonzero(~poisoned_rows), np.arange(4, 9))

    def test_row_count_mismatch_is_loud(self):
        slab, (a, b) = filled(EmbeddingBag, [5, 5], dim=3)
        before = slab.weight.copy()
        with pytest.raises(ValueError, match="shape"):
            b.load_state_dict({"weight": np.zeros((6, 3), np.float32)})
        np.testing.assert_array_equal(slab.weight, before)

    def test_rows_view_rejects_a_range_outside_the_bag(self, rng):
        bag = EmbeddingBag(5, 3, rng=rng)
        for start, stop in ((-1, 2), (3, 3), (2, 6)):
            with pytest.raises(ValueError):
                bag.rows_view(start, stop)

    def test_scratch_is_per_instance(self, numpy_tier):
        slab, (a, b) = filled(EmbeddingBag, [50, 50])
        idx, off = np.arange(40) % 50, np.arange(0, 41, 4)
        for bag in (slab, a, b):
            bag.forward(idx, off)
        scratches = [bag._scratch for bag in (slab, a, b)]
        assert all(s.nbytes for s in scratches)
        assert len(set(map(id, scratches))) == 3
        assert len(a.rows_view(0, 10)._scratch) == 0

    @pytest.mark.parametrize("rows,dim", [(50_000, 3), (7, 64), (1, 1)])
    def test_blockwise_init_is_the_one_shot_draw(self, rows, dim):
        bound = np.sqrt(1.0 / rows)
        want = np.random.default_rng(3).uniform(-bound, bound, size=(rows, dim))
        table = EmbeddingBag(rows, dim, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(table.weight, want.astype(np.float32))


#: A model whose tables are drawn straight into its slab is, byte for
#: byte, the one drawn at commit 1e07cee (a bag per table, copied into
#: the slab): :func:`state_digest` of ``DLRM(PINNED_CFG, seed=5)`` per
#: build, and for the tiered build also of its slab, hot-first.  Seeded
#: draws only, no BLAS: these hold on every host and tier.
PINNED_CFG = dataclasses.replace(tiny_config(num_tables=4, dim=13), table_rows=(60, 7, 10_500, 33))
PINNED = {
    "fp32": "b322f6e56f23df6e6adcb625bcd32869821eef8530c6d424e23442dd1f37d454",
    "split_bf16/16": "99744a9618eea2030751adfa053ad9981ec730537ba9171e2f594ceb3f152d24",
    "split_bf16/8": "59bf8934d92ab2307a8e5a1651e57b998ce81c72de7a3716310990bfb1f26610",
    "tiered slab": "7bbe43af08171e77af19655e011b6d050c34ccefd34781e5ba390c8b6dd5c430",
}


@pytest.mark.usefixtures("kernel_tier")
class TestTheDrawnModelIsPinned:
    def test_fp32_and_split_bf16(self):
        assert state_digest(DLRM(PINNED_CFG, seed=5).state_dict()) == PINNED["fp32"]
        for lo_bits in (16, 8):
            model = DLRM(PINNED_CFG, seed=5, storage="split_bf16", lo_bits=lo_bits)
            assert state_digest(model.state_dict()) == PINNED[f"split_bf16/{lo_bits}"]

    def test_a_hot_cold_build(self, tmp_path):
        plans = {t: types.SimpleNamespace(mode="hot_cold", hot_rows=np.arange(0, 30, 4) + t) for t in (0, 2)}
        model = build_tiered(
            lambda alloc: DLRM(PINNED_CFG, seed=5, slab_alloc=alloc), plans, cold_dir=str(tmp_path)
        )
        assert state_digest(model.state_dict()) == PINNED["fp32"]
        assert state_digest({"slab": model.slab.weight}) == PINNED["tiered slab"]


    @pytest.mark.parametrize("lo_bits", [16, 8])
    def test_a_split_draw_is_the_one_shot_draw_split(self, lo_bits):
        rows, dim = 50_000, 3  # two of the Split-BF16 draw's blocks
        bound = np.sqrt(1.0 / rows)
        want = np.random.default_rng(3).uniform(-bound, bound, size=(rows, dim))
        hi, lo = split_fp32(want.astype(np.float32))
        table = SplitEmbeddingBag(rows, dim, rng=np.random.default_rng(3), lo_bits=lo_bits)
        np.testing.assert_array_equal(table.hi, hi)
        np.testing.assert_array_equal(table.lo, truncate_lo_bits(lo, lo_bits))


@pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
def test_a_build_holds_the_slab_and_no_table_beside_it(storage, kernel_tier):
    """Each table is drawn into its slab rows: a build's traced peak is
    the slab and at most a block, not the slab and a stand-alone table."""
    cfg = tiny_config(num_tables=2, rows=20_000, dim=64)
    table_bytes = 20_000 * 64 * 4
    tracemalloc.start()
    try:
        model = DLRM(cfg, seed=0, storage=storage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(a.nbytes for a in arrays(model.slab)) == 2 * table_bytes
    assert peak < 2 * table_bytes + table_bytes // 2, f"peak {peak} B over a {2 * table_bytes} B slab"


class TestModelOverTheSlab:
    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_tables_are_views_after_construction_and_load(self, storage):
        cfg = mixed_cfg()
        model = DLRM(cfg, seed=3, storage=storage)
        other = DLRM(cfg, seed=9, storage=storage)
        assert model.slab.rows == sum(cfg.table_rows)

        def assert_views(m):
            for t, table in m.tables.items():
                assert table.rows == cfg.table_rows[t]
                for mine, whole in zip(arrays(table), arrays(m.slab)):
                    assert np.shares_memory(mine, whole)

        assert_views(model)
        before = [id(a) for t in model.tables.values() for a in arrays(t)]
        model.load_state_dict(other.state_dict())
        assert_views(model)
        assert before == [id(a) for t in model.tables.values() for a in arrays(t)]
        for key, value in other.state_dict().items():
            np.testing.assert_array_equal(model.state_dict()[key], value)
        # ... and the slab really holds what was loaded.
        start = 0
        for t in model.table_ids:
            for mine, whole in zip(arrays(other.tables[t]), arrays(model.slab)):
                np.testing.assert_array_equal(whole[start : start + cfg.table_rows[t]], mine)
            start += cfg.table_rows[t]

    def test_same_seeded_init_and_state_keys_as_stand_alone_tables(self):
        cfg = mixed_cfg()
        model = DLRM(cfg, seed=5)
        for t, table in model.tables.items():
            alone = EmbeddingBag(cfg.table_rows[t], cfg.embedding_dim, rng=rng_from(5, "table", t))
            np.testing.assert_array_equal(table.weight, alone.weight)
        keys = {k for k in model.state_dict() if k.startswith("table.")}
        assert keys == {f"table.{t}.weight" for t in range(cfg.num_tables)}

    def test_a_rank_owns_a_slab_of_its_tables_only(self):
        cfg = mixed_cfg()
        whole = DLRM(cfg, seed=2)
        shard = DLRM(cfg, seed=2, table_ids=[1, 3, 4])
        assert shard.slab.rows == 3 + 8 + 21
        for t in (1, 3, 4):
            np.testing.assert_array_equal(shard.tables[t].weight, whole.tables[t].weight)

    def test_tables_mapping_is_read_only(self, rng):
        model = DLRM(tiny_config(), seed=0)
        with pytest.raises(TypeError):
            model.tables[0] = EmbeddingBag(50, 8, rng=rng)

    @pytest.mark.parametrize("table,bad", [(1, 3), (0, 40), (2, -1), (4, 21)])
    def test_an_id_past_its_own_table_raises_instead_of_reading_the_next(self, table, bad):
        cfg = mixed_cfg()
        model = DLRM(cfg, seed=1)
        opt = SGD(lr=0.1, strategy=make_strategy("fused"))
        opt.register(model.parameters())
        batch = random_batch(cfg, 8, seed=0)
        batch.indices[table][5] = bad
        before = model.slab.weight.copy()
        for call in (
            lambda: model.forward(batch),
            lambda: model.infer(batch),
            lambda: model.train_step(batch, opt),
        ):
            with pytest.raises(IndexError):
                call()
        np.testing.assert_array_equal(model.slab.weight, before)

    def test_offsets_that_do_not_span_a_tables_lookups_are_loud(self):
        cfg = mixed_cfg()
        model = DLRM(cfg, seed=1)
        batch = random_batch(cfg, 8, seed=0)
        batch.offsets[2] = batch.offsets[2].copy()
        batch.offsets[2][0] = 1
        with pytest.raises(ValueError, match="span"):
            model.forward(batch)

    @pytest.mark.parametrize("ragged", [False, True])
    def test_forward_and_infer_equal_the_per_table_look_ups(self, ragged):
        cfg = mixed_cfg()
        model, twin = DLRM(cfg, seed=4), DLRM(cfg, seed=4)
        detach_tables(twin, seed=4)
        batch = random_batch(cfg, 12, seed=2, ragged=ragged)
        want = {t: twin.tables[t].forward(batch.indices[t], batch.offsets[t]) for t in range(5)}
        got = model.embedding_forward(batch)
        for t in range(5):
            np.testing.assert_array_equal(got[t], want[t])
        np.testing.assert_array_equal(model.infer(batch), twin.infer(batch))
        assert model._lookup[0] is batch  # the forward fused; infer keeps no state


@pytest.mark.parametrize("combo", sorted(COMBOS))
def test_twenty_steps_equal_the_per_table_construction(combo):
    opt_cls, strategy, storage = COMBOS[combo]
    cfg = mixed_cfg()
    model = DLRM(cfg, seed=7, storage=storage)
    twin = DLRM(cfg, seed=7, storage=storage)
    detach_tables(twin, seed=7)
    opts = []
    for m in (model, twin):
        opt = opt_cls(lr=0.05, strategy=make_strategy(strategy))
        opt.register(m.parameters())
        opts.append(opt)
    data = SyntheticCriteoDataset(cfg, seed=3)
    for step in range(20):
        batch = data.batch(16, step) if step % 4 else random_batch(cfg, 16, seed=step, ragged=True)
        assert model.train_step(batch, opts[0]) == twin.train_step(batch, opts[1])
    a, b = model.state_dict(), twin.state_dict()
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)
    sa = opts[0].state_dict(model.parameters(), model.tables)
    sb = opts[1].state_dict(twin.parameters(), twin.tables)
    assert sa.keys() == sb.keys()
    for key in sa:
        np.testing.assert_array_equal(sa[key], sb[key], err_msg=key)
    for table in model.tables.values():  # still views, twenty steps on
        for mine, whole in zip(arrays(table), arrays(model.slab)):
            assert np.shares_memory(mine, whole)


class ReversedRows(EmbeddingBag):
    """A view that keeps its rows bottom-up: the least a table needs to
    stay in the slab in an order of its own is ``storage_rows``."""

    def storage_rows(self, indices):
        return self.rows - 1 - indices

    def state_dict(self, copy=True):
        return {"weight": self.weight[::-1].copy()}


class TestTheIdSeam:
    """Ids enter the slab's id space in one place, which asks each table
    view for its storage rows."""

    def test_a_flat_bag_stores_row_i_at_i(self, rng):
        idx = np.array([4, 0, 4])
        assert EmbeddingBag(5, 3, rng=rng).storage_rows(idx) is idx

    @pytest.mark.parametrize("storage,arrays_wanted", [("fp32", 1), ("split_bf16", 2)])
    def test_the_slab_lives_where_slab_alloc_puts_it(self, storage, arrays_wanted):
        handed = []

        def alloc(shape, dtype):
            handed.append(np.empty(shape, dtype))
            return handed[-1]

        cfg = mixed_cfg()
        model = DLRM(cfg, seed=3, storage=storage, slab_alloc=alloc)
        assert len(handed) == arrays_wanted
        assert all(a.shape == (sum(cfg.table_rows), 8) for a in handed)
        assert all(mine is given for mine, given in zip(arrays(model.slab), handed))
        other = DLRM(cfg, seed=3, storage=storage)
        for key, value in other.state_dict().items():
            np.testing.assert_array_equal(model.state_dict()[key], value)

    def rebound(self, seed=7):
        """(model with table 2 stored bottom-up, untouched twin)."""
        cfg = mixed_cfg()
        model, twin = DLRM(cfg, seed=seed), DLRM(cfg, seed=seed)
        rows = model.tables[2].weight
        rows[...] = rows[::-1].copy()
        fresh = model.slab.rows_view(43, 100)
        fresh.__class__ = ReversedRows
        model.forward(random_batch(cfg, 4, seed=0))  # a cached look-up to invalidate
        model.rebind_table(2, fresh)
        assert model.tables[2] is fresh and model._lookup is None
        return cfg, model, twin

    @pytest.mark.parametrize("strategy", ["fused", "racefree"])
    def test_a_view_with_its_own_row_order_stays_in_the_slab(self, strategy):
        cfg, model, twin = self.rebound()
        opts = []
        for m in (model, twin):
            opts.append(SGD(lr=0.05, strategy=make_strategy(strategy)))
            opts[-1].register(m.parameters())
        for step in range(6):
            batch = random_batch(cfg, 16, seed=step, ragged=step % 2 == 1)
            np.testing.assert_array_equal(model.infer(batch), twin.infer(batch))
            if step < 4:
                assert model.train_step(batch, opts[0]) == twin.train_step(batch, opts[1])
            else:  # the materialising way into the same update
                for m in (model, twin):
                    m.train_step(batch, SGD(lr=0.05, strategy=make_strategy("reference")))
        for key, value in twin.state_dict().items():
            np.testing.assert_array_equal(model.state_dict()[key], value, err_msg=key)
        np.testing.assert_array_equal(model.slab.weight[43:100], twin.slab.weight[43:100][::-1])

    def test_a_model_that_owns_no_table_has_nothing_to_look_up_or_update(self):
        cfg = mixed_cfg()
        model = DLRM(cfg, seed=1, table_ids=[])
        batch = random_batch(cfg, 4, seed=0)
        opt = SGD(lr=0.1, strategy=make_strategy("fused"))
        assert model.slab is None and model.embedding_forward(batch) == {}
        model.sparse_update({}, batch, opt)

    def test_rebind_table_wants_a_view_of_the_same_shape(self, rng):
        model = DLRM(mixed_cfg(), seed=1)
        for bad in (EmbeddingBag(56, 8, rng=rng), EmbeddingBag(57, 4, rng=rng)):
            with pytest.raises(ValueError, match="57 x 8"):
                model.rebind_table(2, bad)
        with pytest.raises(KeyError):
            model.rebind_table(9, EmbeddingBag(57, 8, rng=rng))


def test_a_steady_state_step_never_allocates_a_lookups_by_dim_block(kernel_tier):
    """``train_emb``'s shape, scaled down: the pooled forward gathers
    through the bag's buffer (NumPy tier) or not at all (native) and the
    fused update reads the bag-level gradients, so no ``(NS, E)`` array
    exists at any point of a step."""
    cfg = tiny_config(num_tables=8, rows=5_000, dim=64, lookups=32, minibatch=128)
    model = DLRM(cfg, seed=0)
    opt = SGD(lr=0.05, strategy=make_strategy("fused"))
    opt.register(model.parameters())
    data = SyntheticCriteoDataset(cfg, seed=0)
    batches = [data.batch(128, i) for i in range(4)]
    for batch in batches[:3]:  # buffers, gradient flats, allocator pools
        model.train_step(batch, opt)
    lookups_by_dim = 8 * 128 * 32 * 64 * 4
    # What the forward does keep is one block, not the batch.
    assert model.slab._scratch.nbytes <= row_kernels._BLOCK_ELEMS * 4 < lookups_by_dim // 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model.train_step(batches[3], opt)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # Index bookkeeping (ids, plan, bag ids: a dozen int64 vectors) is
    # about half an (NS, E) block at E=64; the block itself would add
    # its full size on top.
    assert peak < lookups_by_dim, f"peak {peak} B vs an (NS, E) block of {lookups_by_dim} B"
