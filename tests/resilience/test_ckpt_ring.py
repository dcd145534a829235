"""CheckpointRing: prune, CRC-verified loads, quarantine + fallback."""

import numpy as np
import pytest

from repro.resilience.errors import CheckpointCorrupt
from repro.resilience.faults import corrupt_file
from repro.resilience.ring import CheckpointRing, RingCheckpoint
from repro.train import RunSpec, load_checkpoint, make_trainer


def tiny_spec(**over) -> RunSpec:
    base = {
        "name": "ring-test",
        "model": {"config": "small", "rows_cap": 200, "minibatch": 16, "seed": 3},
        "data": {"name": "random", "seed": 5},
        "optimizer": {"name": "sgd", "lr": 0.05},
        "schedule": {"steps": 6, "batch_size": 32, "eval_size": 32},
    }
    base.update(over)
    return RunSpec.from_dict(base)


@pytest.fixture
def trainer():
    t = make_trainer(tiny_spec())
    yield t
    t.close()


class TestRing:
    def test_save_prune_keeps_newest(self, tmp_path, trainer):
        ring = CheckpointRing(tmp_path / "ring", keep=2)
        for _ in range(4):
            trainer.fit(1)
            ring.save(trainer)
        names = [p.name for p in ring.entries()]
        assert names == ["ckpt-00000003.npz", "ckpt-00000004.npz"]

    def test_load_latest_returns_newest_good(self, tmp_path, trainer):
        ring = CheckpointRing(tmp_path / "ring", keep=3)
        trainer.fit(2)
        ring.save(trainer)
        trainer.fit(2)
        ring.save(trainer)
        ckpt, path = ring.load_latest(trainer.spec, at_most=4)
        assert ckpt.step == 4
        assert path == ring.path_for(4)

    def test_a_save_evicts_the_entries_past_its_step(self, tmp_path, trainer):
        """Another run's newer entries go at once; the run's own stay."""
        ring = CheckpointRing(tmp_path / "ring", keep=2)
        for step in (8, 10):
            trainer.step = step
            ring.save(trainer)
        trainer.step = 0
        trainer.fit(2)
        ring.save(trainer)
        assert [p.name for p in ring.entries()] == ["ckpt-00000002.npz"]

    def test_load_latest_takes_only_the_runs_own_entry_at_or_below_a_step(
        self, tmp_path, trainer
    ):
        ring = CheckpointRing(tmp_path / "ring", keep=3)
        trainer.fit(2)
        ring.save(trainer)
        trainer.fit(2)
        ring.save(trainer)
        assert ring.load_latest(trainer.spec, at_most=3)[0].step == 2
        assert ring.load_latest(tiny_spec(name="another"), at_most=4) is None

    def test_empty_ring_loads_none(self, tmp_path):
        assert CheckpointRing(tmp_path / "nothing").load_latest(tiny_spec(), at_most=9) is None

    def test_corrupt_latest_quarantined_and_fallback(self, tmp_path, trainer):
        ring = CheckpointRing(tmp_path / "ring", keep=3)
        trainer.fit(2)
        good = ring.save(trainer)
        trainer.fit(2)
        bad = ring.save(trainer)
        corrupt_file(bad)
        ckpt, path = ring.load_latest(trainer.spec, at_most=4)
        assert ckpt.step == 2 and path == good
        # The broken entry is out of the ring, kept for post-mortem.
        assert not bad.exists()
        assert bad.with_suffix(".npz.corrupt").exists()
        assert [p.name for p in ring.entries()] == ["ckpt-00000002.npz"]

    def test_crc_detects_flipped_bits(self, tmp_path, trainer):
        trainer.fit(1)
        path = tmp_path / "one.npz"
        trainer.save_checkpoint(path)
        assert load_checkpoint(path, verify=True).step == 1
        corrupt_file(path)
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path, verify=True)


class TestRingCallback:
    def test_saves_every_n_and_final(self, tmp_path):
        trainer = make_trainer(
            tiny_spec(),
            callbacks=[RingCheckpoint(tmp_path / "ring", every=2, keep=10)],
        )
        try:
            trainer.fit(5)
        finally:
            trainer.close()
        ring = CheckpointRing(tmp_path / "ring")
        names = [p.name for p in ring.entries()]
        # Every 2 steps, plus the off-cycle final state.
        assert names == [
            "ckpt-00000002.npz",
            "ckpt-00000004.npz",
            "ckpt-00000005.npz",
        ]

    def test_replayed_save_is_bitwise_identical(self, tmp_path):
        def run(tag):
            trainer = make_trainer(
                tiny_spec(),
                callbacks=[RingCheckpoint(tmp_path / tag, every=2, keep=10)],
            )
            try:
                trainer.fit(4)
            finally:
                trainer.close()
            return (tmp_path / tag / "ckpt-00000004.npz").read_bytes()

        assert run("a") == run("b")

    def test_rejects_bad_every(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            RingCheckpoint(tmp_path, every=0)
        with pytest.raises(ValueError, match="keep"):
            CheckpointRing(tmp_path, keep=0)


class TestV1Compat:
    def test_unverified_load_skips_crc(self, tmp_path, trainer):
        """verify=False loads even a damaged archive's good arrays --
        the escape hatch for pre-CRC (v1) files is the same code path."""
        trainer.fit(1)
        path = tmp_path / "ck.npz"
        trainer.save_checkpoint(path)
        ckpt = load_checkpoint(path, verify=False)
        assert ckpt.step == 1
        state = trainer.model.state_dict()
        for key, arr in ckpt.model_state.items():
            assert np.array_equal(arr, state[key])
