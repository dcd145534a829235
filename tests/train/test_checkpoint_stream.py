"""The streaming checkpoint reader and writer.

A fresh model is built from the archive one member at a time, each
member checked before it is used; a live restore checks every member
before it writes anything; a save writes from the live storage.  The
file format is the one ``np.savez`` wrote before (format v2), so files
cross between the two writers and readers both ways.
"""

from __future__ import annotations

import gc
import json
import os
import stat
import struct
import tracemalloc
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.embedding import EmbeddingBag, SparseGrad
from repro.core.optim import SparseAdagrad
from repro.resilience.errors import CheckpointCorrupt
from repro.resilience.faults import corrupt_file
from repro.serve import InferenceEngine
from repro.train import RunSpec, load_checkpoint, make_trainer
from repro.train.checkpoint import save_state
from repro.train import checkpoint as ckpt_mod
from tests.conftest import build_from_checkpoint

DATA = Path(__file__).parent / "data"


def spec_for(rows=(200, 3, 150, 64), dim=8, optimizer="sgd", storage="fp32", **over) -> RunSpec:
    return RunSpec.from_dict(
        {
            **over,
            "name": "stream",
            "model": {
                "config": "small",
                "overrides": {
                    "table_rows": list(rows),
                    "embedding_dim": dim,
                    "lookups_per_table": 5,
                    "dense_features": 6,
                    "bottom_mlp": [12, dim],
                    "top_mlp": [16, 1],
                },
                "minibatch": 32,
                "seed": 4,
            },
            "data": {"name": "criteo", "seed": 1},
            "optimizer": {"name": optimizer, "lr": 0.05},
            "precision": {"storage": storage, "lo_bits": 16},
            "schedule": {"steps": 4, "batch_size": 32, "eval_size": 32},
        }
    )


def assert_states_equal(a, b) -> None:
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def live_state(trainer) -> tuple[dict, dict]:
    return trainer._executor.state_dicts()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A checkpoint of a short fp32 run, and the trainer that wrote it."""
    path = tmp_path_factory.mktemp("ckpt") / "run.npz"
    trainer = make_trainer(spec_for()).fit(3)
    trainer.save_checkpoint(path)
    return trainer, path


# -- corrupt archives through every reader ------------------------------------


def member_spans(path: Path) -> dict[str, tuple[int, int]]:
    """Each member's data as ``[start, stop)`` byte offsets in the file."""
    spans = {}
    with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
        for info in zf.infolist():
            fh.seek(info.header_offset + 26)  # local header: name and extra lengths
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            start = info.header_offset + 30 + name_len + extra_len
            spans[info.filename.removesuffix(".npy")] = (start, start + info.compress_size)
    return spans


def flipped(src: Path, dst: Path) -> str:
    """``corrupt_file``'s flip of the file's middle, which lands in a
    table member's data; returns that member's key."""
    dst.write_bytes(src.read_bytes())
    middle = dst.stat().st_size // 2
    (key,) = [k for k, (a, b) in member_spans(dst).items() if a + 32 <= middle < b - 32]
    corrupt_file(dst)
    return key


def rewritten(src: Path, dst: Path) -> str:
    """One table member's bytes changed under a valid zip CRC: only
    ``meta.crc`` can tell."""
    key = "model.table.2.weight"
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            data = bytearray(zin.read(info))
            if info.filename == key + ".npy":
                data[-1] ^= 0x01
            zout.writestr(info, bytes(data))
    return key


def dropped(src: Path, dst: Path) -> str:
    """One table member left out of the archive."""
    key = "model.table.0.weight"
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            if info.filename != key + ".npy":
                zout.writestr(info, zin.read(info))
    return key


def truncated(src: Path, dst: Path) -> None:
    """The first half of the file: no central directory, no member to name."""
    data = src.read_bytes()
    dst.write_bytes(data[: len(data) // 2])


READERS = {
    "build_from_checkpoint": build_from_checkpoint,
    "InferenceEngine.from_checkpoint": InferenceEngine.from_checkpoint,
}


@pytest.mark.parametrize("damage", [flipped, rewritten, dropped, truncated])
class TestCorruptArchives:
    def test_every_reader_raises_the_typed_error_naming_the_key(self, saved, damage, tmp_path):
        _, good = saved
        bad = tmp_path / "bad.npz"
        key = damage(good, bad)
        live = make_trainer(spec_for()).fit(1)
        before = [{k: v.copy() for k, v in part.items()} for part in live_state(live)]
        readers = {**READERS, "Trainer.load_checkpoint": live.load_checkpoint}
        for name, read in readers.items():
            with pytest.raises(CheckpointCorrupt) as err:
                read(bad)
            if key is None:
                assert "unreadable archive" in str(err.value), name
            else:
                assert key in err.value.bad_keys and key in str(err.value), name
        # The live trainer was never touched: a corrupt file is read whole
        # and checked before anything is written.
        for want, got in zip(before, live_state(live)):
            assert_states_equal(got, want)
        assert live.step == 1


def test_a_tiered_engine_that_fails_half_way_leaves_no_slab_file(tmp_path):
    """The file-backed slab of a build that hit a corrupt member goes
    with the half-built model."""
    cold = tmp_path / "cold"
    tiering = {"enabled": True, "hot_rows": 16, "min_table_rows": 64,
               "coverage_threshold": 0.05, "cold_dir": str(cold)}
    trainer = make_trainer(spec_for(tiering=tiering)).fit(2)
    trainer.save_checkpoint(tmp_path / "good.npz")
    trainer.close()
    del trainer
    gc.collect()
    assert not list(cold.iterdir())
    key = rewritten(tmp_path / "good.npz", tmp_path / "bad.npz")
    with pytest.raises(CheckpointCorrupt, match=key):
        InferenceEngine.from_checkpoint(tmp_path / "bad.npz")
    gc.collect()
    assert not list(cold.iterdir())
    engine = InferenceEngine.from_checkpoint(tmp_path / "good.npz")
    assert len(list(cold.iterdir())) == 1  # the slab file, while the engine lives
    del engine


@given(
    st.one_of(
        st.integers(-(2**63), 2**63 - 1).map(lambda v: np.asarray(np.int64(v))),
        st.text(max_size=40).map(lambda s: np.asarray(np.str_(s))),
        hnp.arrays(np.uint16, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)),
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6)),
        hnp.arrays(np.uint16, st.tuples(st.integers(1, 9), st.integers(1, 9))).map(
            lambda a: a[::2, ::-1]
        ),
        hnp.arrays(np.float32, st.tuples(st.integers(1, 9), st.integers(1, 9))).map(
            lambda a: a.T
        ),
    )
)
@settings(max_examples=150, deadline=None)
def test_the_zero_copy_crc_is_the_crc_of_the_bytes(arr):
    assert ckpt_mod._crc(arr) == zlib.crc32(np.ascontiguousarray(arr).tobytes())


# -- live views ------------------------------------------------------------------


@pytest.mark.parametrize("variant", [("adagrad", "fp32"), ("split_sgd", "split_bf16")])
def test_state_dicts_copy_or_hand_the_live_storage(variant):
    """``copy=True`` shares no memory with the model or optimizer;
    ``copy=False`` is their storage itself, the same bits."""
    optimizer, storage = variant
    trainer = make_trainer(spec_for(optimizer=optimizer, storage=storage)).fit(2)
    copies, views = trainer._executor.state_dicts(), trainer._executor.state_dicts(copy=False)
    for part_copies, part_views in zip(copies, views):
        assert part_copies.keys() == part_views.keys()
        for key, view in part_views.items():
            assert not np.shares_memory(part_copies[key], view), key
            np.testing.assert_array_equal(part_copies[key], view, err_msg=key)
    model, opt = trainer.model, trainer.optimizer
    lo = storage == "split_bf16"
    assert np.shares_memory(views[0][f"table.0.{'lo' if lo else 'weight'}"],
                            model.slab.lo if lo else model.slab.weight)
    assert np.shares_memory(views[0]["bottom.layers.0.weight"], model.dense.values)
    assert np.shares_memory(views[1][f"{opt.state_key}.0"], opt.state_view(model.parameters()[0]))


def test_adagrad_rows_a_table_never_stepped_are_still_copies():
    opt = SparseAdagrad(lr=0.1)
    tables = {0: EmbeddingBag(8, 4, rng=np.random.default_rng(0)),
              1: EmbeddingBag(8, 4, rng=np.random.default_rng(1))}
    opt.step_sparse(tables[1], SparseGrad(np.array([2, 5]), np.ones((2, 4), np.float32)))
    state = opt.state_dict([], tables)
    assert not np.shares_memory(state["row.1"], opt._row_state[tables[1]])
    views = opt.state_dict([], tables, copy=False)
    assert np.shares_memory(views["row.1"], opt._row_state[tables[1]])


# -- durability ----------------------------------------------------------------


def test_the_rename_is_made_durable_by_a_directory_fsync(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def spy_fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def spy_replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    save_state(tmp_path / "sub" / "c.npz", {"w": np.arange(4, dtype=np.float32)}, step=3)
    assert events == ["fsync file", "replace", "fsync dir"]
    assert load_checkpoint(tmp_path / "sub" / "c.npz").step == 3


# -- memory --------------------------------------------------------------------

#: Bytes a read or a write may hold beyond its arrays: parsed headers,
#: the npy reader's 256 KiB chunk and its concatenation, the zip layer's
#: buffers (~0.6 MiB measured at a 1.9 MB member).
SLACK = 2 << 20


def traced_peak(call) -> tuple[object, int]:
    """``call()``'s result and the peak of traced memory it added."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    """Four 30k-row tables (1.9 MB each): a model the tables dominate."""
    path = tmp_path_factory.mktemp("big") / "big.npz"
    trainer = make_trainer(spec_for(rows=(30_000,) * 4, dim=16)).fit(1)
    trainer.save_checkpoint(path)
    return trainer, path


def test_serving_a_checkpoint_holds_the_model_and_one_member(big):
    _, path = big
    engine, peak = traced_peak(lambda: InferenceEngine.from_checkpoint(path))
    model = engine.model
    model_bytes = model.dense.values.nbytes + sum(
        getattr(model.slab, name).nbytes for name in model.slab._arrays
    )
    with zipfile.ZipFile(path) as zf:
        largest = max(info.file_size for info in zf.infolist())
    assert largest >= 30_000 * 16 * 4
    # A build-then-overwrite restore holds the archive *and* a drawn
    # model: twice the model.
    assert peak <= model_bytes + largest + SLACK, (peak, model_bytes, largest)


def test_saving_from_the_live_storage_allocates_no_state(big, tmp_path):
    trainer, _ = big
    _, peak = traced_peak(lambda: trainer.save_checkpoint(tmp_path / "again.npz"))
    table_bytes = 30_000 * 16 * 4
    assert peak < table_bytes // 4, peak
    saved = load_checkpoint(tmp_path / "again.npz").model_state
    assert_states_equal(saved, trainer.model.state_dict())


# -- files across versions ----------------------------------------------------


def parent_save(path, model_state, opt_state, step, spec) -> None:
    """The writer before streaming: ``np.savez`` of the whole dict, each
    CRC through ``tobytes()``."""
    arrays = {"model." + k: v for k, v in model_state.items()}
    arrays.update(("opt." + k, v) for k, v in opt_state.items())
    arrays["meta.step"] = np.int64(step)
    arrays["meta.spec"] = np.str_(spec.to_json())
    arrays["meta.version"] = np.int64(2)
    arrays["meta.crc"] = np.str_(
        json.dumps(
            {k: zlib.crc32(np.ascontiguousarray(v).tobytes()) for k, v in sorted(arrays.items())}
        )
    )
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize(
    "variant", [("sgd", "fp32"), ("split_sgd", "split_bf16"), ("adagrad", "fp32")]
)
def test_a_saved_file_is_the_parents_byte_for_byte(variant, tmp_path):
    spec = spec_for(optimizer=variant[0], storage=variant[1])
    trainer = make_trainer(spec).fit(2)
    trainer.save_checkpoint(tmp_path / "new.npz")
    parent_save(tmp_path / "old.npz", *live_state(trainer), trainer.step, spec)
    with zipfile.ZipFile(tmp_path / "new.npz") as new, zipfile.ZipFile(tmp_path / "old.npz") as old:
        assert new.namelist() == old.namelist()
        assert new.namelist()[-1] == "meta.crc.npy"
        for name in old.namelist():
            assert new.read(name) == old.read(name), name
    # ... and the parent's file streams into a fresh model like a new one.
    model, opt, header = build_from_checkpoint(tmp_path / "old.npz")
    assert header.step == 2
    assert_states_equal(model.state_dict(), trainer.model.state_dict())


@pytest.mark.parametrize("path", sorted(DATA.glob("*.npz")), ids=lambda p: p.name)
def test_every_recorded_parent_file_streams_into_the_state_it_holds(path):
    """The streaming build lands on exactly what the verify-all reader
    reads, for every file an earlier commit wrote (tiered included)."""
    want = load_checkpoint(path)
    model, opt, header = build_from_checkpoint(path)
    assert (header.step, header.spec) == (want.step, want.spec)
    assert_states_equal(model.state_dict(), want.model_state)
    assert_states_equal(opt.state_dict(model.parameters(), model.tables), want.opt_state)
    engine = InferenceEngine.from_checkpoint(path)
    assert_states_equal(engine.model.state_dict(), want.model_state)


def test_a_missing_table_still_raises_key_error(tmp_path):
    trainer = make_trainer(spec_for()).fit(1)
    state, opt_state = live_state(trainer)
    partial = {k: v for k, v in state.items() if not k.startswith("table.2.")}
    save_state(tmp_path / "p.npz", partial, opt_state, step=1, spec=trainer.spec)
    with pytest.raises(KeyError, match="table 2"):
        build_from_checkpoint(tmp_path / "p.npz")
