"""Trainer (single model and inline ranks) under the worker pool: same bits, same files.

Covers the training-loop half of ISSUE 4's bit-identity contract: a
``fit`` with ``workers > 1`` (prefetching loader + parallel ranks +
sharded kernels all engaged) reproduces the sequential losses, weights
and checkpoints exactly, and checkpoint/resume under the pool remains
bit-identical -- in FP32 and Split-BF16.
"""

import numpy as np
import pytest

from repro.train import RunSpec, load_checkpoint, make_trainer

from tests.conftest import pooled
from tests.train.test_trainer import tiny_spec


def spec_for(storage: str, **over) -> RunSpec:
    """Split-BF16 storage implies the split_sgd optimizer (spec invariant)."""
    if storage == "split_bf16":
        over.setdefault("optimizer", {"name": "split_sgd", "lr": 0.05})
    return tiny_spec(precision={"storage": storage}, **over)


def dist_spec(storage: str = "fp32", steps: int = 4) -> RunSpec:
    return spec_for(
        storage,
        parallel={"ranks": 4, "platform": "cluster"},
        schedule={"steps": steps, "batch_size": 64, "eval_size": 64},
    )


def state_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestSingleProcessUnderPool:
    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_fit_bit_identical(self, storage):
        spec = spec_for(storage)
        sequential = make_trainer(spec).fit()
        with pooled(4):
            parallel = make_trainer(spec).fit()
        assert parallel.losses == sequential.losses
        assert state_equal(
            parallel.model.state_dict(), sequential.model.state_dict()
        )

    def test_checkpoint_resume_under_pool(self, tmp_path):
        spec = tiny_spec()
        full = make_trainer(spec).fit()
        with pooled(4):
            half = make_trainer(spec).fit(3)
            half.save_checkpoint(tmp_path / "half.npz")
            resumed = make_trainer(spec)
            resumed.load_checkpoint(tmp_path / "half.npz")
            resumed.fit(3)
        assert resumed.step == full.step
        assert state_equal(resumed.model.state_dict(), full.model.state_dict())


class TestDistributedUnderPool:
    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_fit_bit_identical(self, storage):
        spec = dist_spec(storage)
        sequential = make_trainer(spec).fit()
        with pooled(4):
            parallel = make_trainer(spec).fit()
        assert parallel.losses == sequential.losses
        assert state_equal(
            parallel.dist.state_dict(), sequential.dist.state_dict()
        )
        assert state_equal(
            parallel.dist.optimizer_state_dict(),
            sequential.dist.optimizer_state_dict(),
        )

    def test_checkpoint_file_identical_and_resumable(self, tmp_path):
        """A consolidated checkpoint written under the pool equals the
        sequential one entry-for-entry and resumes to the same end state."""
        spec = dist_spec(steps=4)
        sequential = make_trainer(spec).fit()
        sequential.save_checkpoint(tmp_path / "seq.npz")
        with pooled(4):
            half = make_trainer(spec).fit(2)
            half.save_checkpoint(tmp_path / "half.npz")
            resumed = make_trainer(spec)
            resumed.load_checkpoint(tmp_path / "half.npz")
            resumed.fit(2)
            resumed.save_checkpoint(tmp_path / "par.npz")
        seq, par = load_checkpoint(tmp_path / "seq.npz"), load_checkpoint(
            tmp_path / "par.npz"
        )
        assert seq.step == par.step
        assert state_equal(seq.model_state, par.model_state)
        assert state_equal(seq.opt_state, par.opt_state)
