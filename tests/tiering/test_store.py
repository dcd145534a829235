"""Tiered row store: a permutation of a flat table, on a file mapping.

Every result is compared bit for bit with a plain array driven by
fancy indexing and literal ``np.add.at`` -- nothing under test computes
the expected values.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import EmbeddingBag
from repro.core.model import DLRM
from repro.tiering.planner import plan_placement
from repro.tiering.store import TieredEmbeddingBag, apply_tiering, file_backed
from tests.conftest import (
    TIERED,
    capacity_bytes,
    cold_path,
    random_batch,
    scatter_add_rows_oracle,
    tiered_bag,
    tiny_config,
)
from tests.kernels.test_segment import bits, special_values
from tests.tiering.test_planner import skewed_snapshot

ROWS, DIM = 64, 8


def pair(tmp_path, hot_step=3):
    """A flat table and a tiered clone (every ``hot_step``-th row hot)."""
    flat = EmbeddingBag(ROWS, DIM, rng=np.random.default_rng(0))
    tiered = tiered_bag(flat.weight, np.arange(0, ROWS, hot_step), str(tmp_path))
    return flat, tiered


def drawn(seed) -> np.ndarray:
    return EmbeddingBag(ROWS, DIM, rng=np.random.default_rng(seed)).weight


def lookup(seed=0, n=200):
    g = np.random.default_rng(seed)
    idx = g.integers(0, ROWS, size=n, dtype=np.int64)  # duplicates guaranteed
    off = np.arange(0, n + 1, 4, dtype=np.int64)
    return idx, off


@pytest.mark.usefixtures("kernel_tier")
class TestBitIdentity:
    def test_gather(self, tmp_path):
        flat, tiered = pair(tmp_path)
        idx, _ = lookup()
        np.testing.assert_array_equal(tiered.gather(idx), flat.gather(idx))

    def test_forward(self, tmp_path):
        flat, tiered = pair(tmp_path)
        idx, off = lookup()
        np.testing.assert_array_equal(tiered.forward(idx, off), flat.forward(idx, off))

    def test_scatter_add_with_duplicates(self, tmp_path):
        flat, tiered = pair(tmp_path)
        idx, _ = lookup(seed=1)
        deltas = np.random.default_rng(2).standard_normal((idx.size, DIM)).astype(np.float32)
        flat.scatter_add_rows(idx, deltas)
        tiered.scatter_add_rows(idx, deltas)
        np.testing.assert_array_equal(tiered.dense_weight(), flat.weight)

    def test_scatter_add_with_bag_level_deltas(self, tmp_path):
        flat, tiered = pair(tmp_path)
        idx, off = lookup(seed=3)
        n_bags = off.size - 1
        g = np.random.default_rng(4)
        bag_grads = g.standard_normal((n_bags, DIM)).astype(np.float32)
        flat.scatter_add_rows(idx, bag_grads, offsets=off)
        tiered.scatter_add_rows(idx, bag_grads, offsets=off)
        np.testing.assert_array_equal(tiered.dense_weight(), flat.weight)

    def test_state_dict_roundtrip(self, tmp_path):
        flat, tiered = pair(tmp_path)
        state = tiered.state_dict()
        np.testing.assert_array_equal(state["weight"], flat.weight)
        other = tiered_bag(drawn(9), np.arange(5), str(tmp_path))
        other.load_state_dict(state)
        np.testing.assert_array_equal(other.dense_weight(), flat.weight)


# -- any hot set, against literal np.add.at ----------------------------------------

#: hot set kind -> (rng) -> hot_rows argument.
HOT_SETS = {
    "empty": lambda g: np.empty(0, dtype=np.int64),
    "none": lambda g: None,
    "one row": lambda g: g.integers(0, ROWS, size=1),
    "all but one row": lambda g: np.delete(np.arange(ROWS), g.integers(0, ROWS)),
    "every row": lambda g: np.arange(ROWS),
    "unsorted with duplicates": lambda g: g.integers(0, ROWS, size=40),
}

store_case = given(
    hot_kind=st.sampled_from(sorted(HOT_SETS)),
    special_share=st.sampled_from([0.0, 0.05, 0.9]),
    ragged=st.booleans(),
    seed=st.integers(0, 10_000),
)


@pytest.fixture(scope="module")
def cold_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cold"))


def hot_ids(hot_rows) -> np.ndarray:
    return np.unique(np.asarray([] if hot_rows is None else hot_rows, dtype=np.int64))


def build(rng, hot_kind, special_share, cold_dir):
    """(w0 in id order, the hot ids, a tiered bag holding w0)."""
    w0 = special_values(rng, (ROWS, DIM), special_share)
    hot_rows = HOT_SETS[hot_kind](rng)
    return w0, hot_ids(hot_rows), tiered_bag(w0, hot_rows, cold_dir)


def bags(rng, ragged):
    lengths = rng.integers(0, 7, size=30) if ragged else np.full(30, 4)
    offsets = np.zeros(31, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    idx = rng.integers(0, ROWS, size=int(offsets[-1]), dtype=np.int64)
    return idx, offsets, np.repeat(np.arange(30), lengths)


@pytest.mark.usefixtures("kernel_tier")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, overflow: wanted inputs
class TestAnyHotSetAgainstAddAt:
    @store_case
    @settings(max_examples=60, deadline=None, **TIERED)
    def test_layout_and_reads(self, cold_dir, hot_kind, special_share, ragged, seed):
        rng = np.random.default_rng(seed)
        w0, hot, bag = build(rng, hot_kind, special_share, cold_dir)
        try:
            # One array, hot ids first, everything else after, ascending.
            cold = np.setdiff1d(np.arange(ROWS), hot)
            assert bag.store.weight.shape == (ROWS, DIM)
            np.testing.assert_array_equal(bits(bag.store.weight), bits(w0[np.r_[hot, cold]]))
            np.testing.assert_array_equal(bag.hot_rows, hot)
            assert capacity_bytes(bag) == hot.size * DIM * 4
            for read in (bag.weight, bag.dense_weight(), bag.state_dict()["weight"]):
                np.testing.assert_array_equal(bits(read), bits(w0))
            idx, offsets, bag_ids = bags(rng, ragged)
            np.testing.assert_array_equal(bits(bag.gather(idx)), bits(w0[idx]))
            want = np.zeros((30, DIM), dtype=np.float32)
            np.add.at(want, bag_ids, w0[idx])
            np.testing.assert_array_equal(bits(bag.forward(idx, offsets)), bits(want))
            assert bag.hot_traffic_fraction(idx) == (
                float(np.isin(idx, hot).mean()) if idx.size else 0.0
            )
            assert bag.hot_traffic_fraction(np.empty(0, dtype=np.int64)) == 0.0
        finally:
            bag.close()

    @store_case
    @settings(max_examples=60, deadline=None, **TIERED)
    def test_updates_and_state(self, cold_dir, hot_kind, special_share, ragged, seed):
        rng = np.random.default_rng(seed)
        want, hot, bag = build(rng, hot_kind, special_share, cold_dir)
        other = tiered_bag(
            EmbeddingBag(ROWS, DIM, rng=rng).weight, rng.integers(0, ROWS, size=9), cold_dir
        )
        try:
            idx, offsets, bag_ids = bags(rng, ragged)
            deltas = special_values(rng, (idx.shape[0], DIM), special_share)
            bag_grads = special_values(rng, (30, DIM), special_share)

            def step(table):
                np.add.at(want, idx, deltas)
                table.scatter_add_rows(idx, deltas)
                np.testing.assert_array_equal(bits(table.weight), bits(want))
                np.add.at(want, idx, bag_grads[bag_ids])
                table.scatter_add_rows(idx, bag_grads, offsets=offsets)
                np.testing.assert_array_equal(bits(table.weight), bits(want))
                np.add.at(want, idx, deltas)
                scatter_add_rows_oracle(table, idx, deltas)
                np.testing.assert_array_equal(bits(table.weight), bits(want))

            step(bag)
            # ... into a bag tiered another way, which then steps alike.
            other.load_state_dict(bag.state_dict())
            step(other)
            bag.load_state_dict(other.state_dict())
            np.testing.assert_array_equal(bits(bag.weight), bits(want))
        finally:
            bag.close()
            other.close()

    @pytest.mark.parametrize("bad", [ROWS, ROWS + 5, -1])
    def test_an_id_outside_the_table_raises_instead_of_clipping(self, tmp_path, bad):
        _, tiered = pair(tmp_path)
        before = tiered.weight
        idx = np.array([3, bad, 5], dtype=np.int64)
        off = np.array([0, 2, 3], dtype=np.int64)
        ones = np.ones((3, DIM), dtype=np.float32)
        for call in (
            lambda: tiered.gather(idx),
            lambda: tiered.forward(idx, off),
            lambda: tiered.scatter_add_rows(idx, ones),
            lambda: scatter_add_rows_oracle(tiered, idx, ones),
            lambda: tiered.scatter_add_rows(idx, ones[:2], offsets=off),
        ):
            with pytest.raises(IndexError):
                call()
        np.testing.assert_array_equal(tiered.weight, before)

    def test_hot_rows_outside_the_table_are_rejected(self, tmp_path):
        for hot in ([ROWS], [-1, 2]):
            with pytest.raises(ValueError, match="out of range"):
                tiered_bag(drawn(0), np.array(hot), str(tmp_path))
        assert not list(tmp_path.iterdir())  # rejected before a file is made


class TestStoreMechanics:
    def test_weight_is_read_only(self, tmp_path):
        _, tiered = pair(tmp_path)
        with pytest.raises(AttributeError):
            tiered.weight = np.zeros((ROWS, DIM), dtype=np.float32)

    def test_capacity_counts_hot_only(self, tmp_path):
        _, tiered = pair(tmp_path, hot_step=8)
        full = ROWS * DIM * 4
        assert 0 < capacity_bytes(tiered) < full  # out-of-core footprint
        assert tiered.store.weight.nbytes == full

    def test_close_removes_cold_file(self, tmp_path):
        _, tiered = pair(tmp_path)
        cold = cold_path(tiered)
        assert os.path.exists(cold)
        tiered.close()
        assert not os.path.exists(cold)
        tiered.close()  # idempotent

    def test_the_rows_are_a_plain_array_on_the_file(self, tmp_path):
        _, tiered = pair(tmp_path)
        rows = tiered.store.weight
        assert type(rows) is np.ndarray and type(tiered.gather(np.arange(3))) is np.ndarray
        assert os.path.dirname(cold_path(tiered)) == str(tmp_path)
        assert os.path.getsize(cold_path(tiered)) == ROWS * DIM * 4
        tiered._file.flush()
        on_disk = np.fromfile(cold_path(tiered), dtype=np.float32).reshape(ROWS, DIM)
        np.testing.assert_array_equal(on_disk, rows)

    def test_the_file_goes_with_the_last_view_of_the_mapping(self, tmp_path):
        rows = file_backed((5, 3), cold_dir=str(tmp_path))
        (path,) = tmp_path.iterdir()
        part = rows[1:3]
        del rows
        assert path.exists()  # a view still needs the mapping
        del part
        assert not path.exists() and tmp_path.exists()  # a user's directory stays

    def test_the_mapping_is_advised_random_access(self, tmp_path):
        rows = file_backed((64, 8), cold_dir=str(tmp_path))
        (path,) = tmp_path.iterdir()
        try:
            with open("/proc/self/smaps", encoding="utf-8") as fh:
                smaps = fh.read()
        except OSError:
            pytest.skip("no /proc/self/smaps on this platform")
        entry = smaps[smaps.index(str(path)) :].splitlines()
        flags = next(line for line in entry if line.startswith("VmFlags:")).split()
        assert "rr" in flags and rows.shape == (64, 8)  # VM_RAND_READ: no read-ahead

    def test_a_defaulted_directory_goes_with_its_last_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        a, b = (tiered_bag(drawn(i)) for i in range(2))
        (directory,) = tmp_path.iterdir()
        assert directory.name == f"repro-tiering-{os.getpid()}"
        assert sorted(map(str, directory.iterdir())) == sorted([cold_path(a), cold_path(b)])
        a.close()
        assert directory.exists()
        del b  # by reference count, no close()
        assert not directory.exists()


class TestApplyTiering:
    def test_model_stays_bitwise_equal(self, tmp_path):
        cfg = tiny_config(rows=500)
        model = DLRM(cfg, seed=0)
        ref = DLRM(cfg, seed=0)
        plan = plan_placement(
            cfg, 1, snapshot=skewed_snapshot(cfg), hot_rows=16, min_table_rows=64
        )
        converted = apply_tiering(model, plan.plans, cold_dir=str(tmp_path))
        assert converted == plan.tiered_tables and converted
        for t in converted:
            assert isinstance(model.tables[t], TieredEmbeddingBag)
        batch = random_batch(cfg, 16, seed=1)
        np.testing.assert_array_equal(model.forward(batch), ref.forward(batch))
        a, b = model.state_dict(), ref.state_dict()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_flat_plans_are_no_ops(self, tmp_path):
        cfg = tiny_config(rows=500)
        model = DLRM(cfg, seed=0)
        storage = model.slab.weight
        plan = plan_placement(cfg, 1, hot_rows=16)  # no snapshot: all flat
        assert apply_tiering(model, plan.plans, cold_dir=str(tmp_path)) == []
        assert not any(isinstance(t, TieredEmbeddingBag) for t in model.tables.values())
        assert model.slab.weight is storage and not list(tmp_path.iterdir())  # nothing moved

    def test_a_table_is_tiered_once(self, tmp_path):
        cfg = tiny_config(rows=500)
        model = DLRM(cfg, seed=0)
        plan = plan_placement(
            cfg, 1, snapshot=skewed_snapshot(cfg), hot_rows=16, min_table_rows=64
        )
        apply_tiering(model, plan.plans, cold_dir=str(tmp_path))
        with pytest.raises(ValueError, match="already tiered"):
            apply_tiering(model, plan.plans, cold_dir=str(tmp_path))
