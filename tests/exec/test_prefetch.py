"""PrefetchLoader's one primed slot, and both in-process executors filling
it beside every step: bitwise-deterministic batches at any width."""

import numpy as np
import pytest

from repro.core.batch import Batch
from repro.data.synthetic import RandomRecDataset
from repro.exec.executor import InlineRankExecutor, LocalExecutor
from repro.exec.prefetch import PrefetchLoader
from repro.train import make_trainer

from tests.conftest import pooled, tiny_config
from tests.train.test_process_trainer import dist_spec
from tests.train.test_trainer import tiny_spec


def batches_equal(a: Batch, b: Batch) -> bool:
    if not np.array_equal(a.dense, b.dense) or not np.array_equal(a.labels, b.labels):
        return False
    for ia, ib in zip(a.indices, b.indices):
        if not np.array_equal(ia, ib):
            return False
    for oa, ob in zip(a.offsets, b.offsets):
        if not np.array_equal(oa, ob):
            return False
    return True


class Squares:
    """A dataset whose batch ``k`` is ``k * k``, recording each call."""

    def __init__(self, bad: int | None = None):
        self.calls: list[int] = []
        self.bad = bad

    def batch(self, n: int, index: int) -> int:
        self.calls.append(index)
        if index == self.bad:
            raise RuntimeError(f"batch {index} failed")
        return index * index


def primed(loader: PrefetchLoader) -> int | None:
    """The index the slot holds, or None."""
    return None if loader._primed is None else loader._primed[0]


class TestTheSlot:
    def test_a_hit_takes_the_primed_batch(self):
        data = Squares()
        loader = PrefetchLoader(data, 8)
        loader.primer(1)()
        assert primed(loader) == 1 and data.calls == [1]
        assert loader.batch(1) == 1 and data.calls == [1]
        assert primed(loader) is None

    def test_a_miss_builds_directly_and_drops_it(self):
        data = Squares()
        loader = PrefetchLoader(data, 8)
        loader.primer(1)()
        # A jump (checkpoint resume) or a skip: the primed batch is stale.
        assert loader.batch(5) == 25 and data.calls == [1, 5]
        assert primed(loader) is None
        assert loader.batch(1) == 1 and data.calls == [1, 5, 1]

    def test_a_failed_synthesis_raises_at_its_own_batch(self):
        data = Squares(bad=3)
        loader = PrefetchLoader(data, 8)
        loader.primer(3)()  # the error waits in the slot
        with pytest.raises(RuntimeError, match="batch 3 failed"):
            loader.batch(3)
        data.bad = None  # a retry builds it afresh
        assert loader.batch(3) == 9 and data.calls == [3, 3]

    def test_another_index_drops_a_failed_one_unraised(self):
        loader = PrefetchLoader(Squares(bad=3), 8)
        loader.primer(3)()
        assert loader.batch(4) == 16 and primed(loader) is None

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            PrefetchLoader(Squares(), batch_size=0)


def test_a_primed_stream_matches_direct_calls():
    dataset = RandomRecDataset(tiny_config(), seed=7)
    loader = PrefetchLoader(dataset, batch_size=16)
    for step in range(6):
        got = loader.batch(step)
        loader.primer(step + 1)()
        assert batches_equal(got, dataset.batch(16, step))


@pytest.mark.parametrize("kind", ["local", "inline"])
@pytest.mark.parametrize("width", [1, 2])
def test_every_step_primes_the_next_batch(kind, width):
    """Both in-process executors, at any pool width (with or without a
    helper): step ``k`` trains on the dataset's batch ``k`` and leaves
    ``k + 1`` primed; a jump misses it; the losses are the 1-wide ones."""
    spec = tiny_spec() if kind == "local" else dist_spec()
    expected = {"local": LocalExecutor, "inline": InlineRankExecutor}[kind]
    losses = {}
    for w in sorted({1, width}):
        with pooled(w):
            ex = make_trainer(spec)._executor
            assert type(ex) is expected
            seen = []
            real = ex._prefetch.batch
            ex._prefetch.batch = lambda i: (seen.append(real(i)), seen[-1])[1]
            try:
                losses[w] = [ex.step(i, None) for i in (0, 1, 5)]
                assert primed(ex._prefetch) == 6
                for got, i in zip(seen, (0, 1, 5)):
                    assert batches_equal(got, ex.dataset.batch(ex.batch_size, i))
            finally:
                ex.close()
    assert losses[width] == losses[1]
