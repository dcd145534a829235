"""Gradient buckets as slices of the dense slab, and where a step's
gradients go through them: the send buffers are the ranks' live
gradient flats, the sum lands in one shared flat nobody but the fold
writes, and ``racefree`` reaches the tables through the bag-level entry.
"""

from unittest import mock

import numpy as np
import pytest

from repro.comm.ddp import BucketSlice
from repro.core.embedding import EmbeddingBag
from repro.core.optim import SGD, SparseAdagrad, SplitSGD
from repro.core.update import FusedBackwardUpdate, make_strategy
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM
from tests.conftest import random_batch, tiny_config
from tests.core.test_dense_slab import padding_mask, state_flat
from tests.parallel.test_dense_step_optimizers import OPTIMIZERS


def build(ranks=4, make_opt=lambda: SGD(lr=0.05), **kw):
    cfg = tiny_config(num_tables=4, minibatch=24)
    dist = DistributedDLRM(cfg, SimCluster(ranks, backend="ccl"), seed=7, **kw)
    dist.attach_optimizers(make_opt)
    return cfg, dist


@pytest.mark.parametrize("bucket_mb", [1e-4, 4.0, 64.0])
def test_bucket_slices_tile_each_mlp_half_of_the_slab(bucket_mb):
    _, dist = build(bucket_mb=bucket_mb)
    for model in dist.models:
        slab, at = model.dense, 0
        for half, bucketer in (("bottom", dist.bottom_buckets), ("top", dist.top_buckets)):
            params = getattr(model, half).parameters()
            ends = bucketer.slices(params)
            assert len(ends) == len(bucketer) and all(isinstance(e, BucketSlice) for e in ends)
            # Issue order is descending: walked backwards the slices run
            # on from each other, through the half and nothing else.
            for end in reversed(ends):
                assert (end.span.start, end.span.step) == (at, None)
                assert end.grads.flags["C_CONTIGUOUS"] and np.shares_memory(end.grads, slab.grads)
                at = end.span.stop
            assert at == slab.offsets[params[-1].slot] + -(-params[-1].size // 16) * 16
            total = sum(bucketer.nbytes(k) for k in range(len(bucketer)))
            assert sum(end.nbytes for end in ends) == total
            assert [p for end in reversed(ends) for p in end.params] == params
        assert at == slab.size
    assert (len(dist.top_buckets), len(dist.bottom_buckets)) == (
        (3, 2) if bucket_mb == 1e-4 else (1, 1)
    )


@pytest.mark.parametrize("make_opt", [lambda: SGD(lr=0.05), lambda: SplitSGD(lr=0.05)])
def test_slab_padding_is_still_zero_after_five_steps(make_opt):
    cfg, dist = build(make_opt=make_opt, storage="split_bf16", bucket_mb=1e-4)
    for step in range(5):
        dist.train_step(random_batch(cfg, 24, seed=step))
    pad = padding_mask(dist.models[0].dense)
    assert pad.any()
    for model, opt in zip(dist.models, dist.optimizers):
        flats = [model.dense.values, model.dense.grads, dist._reduced]
        if isinstance(opt, SplitSGD):
            flats.append(state_flat(opt, model.dense, model.parameters()))
        for flat in flats:
            assert not flat.view(f"u{flat.itemsize}")[pad].any()


def test_a_bucket_whose_gradient_nobody_wrote_stops_the_step():
    cfg, dist = build()
    dist.train_step(random_batch(cfg, 24, seed=0))
    model = dist.models[2]
    segment = model.backward_segment

    def forgetful(half, dy, start, stop):
        out = segment(half, dy, start, stop)
        if half == "top":
            model.top.layers[start].bias.zero_grad()
        return out

    model.backward_segment = forgetful
    with pytest.raises(RuntimeError, match="no gradient pending for Parameter\\(top.0.bias"):
        dist.train_step(random_batch(cfg, 24, seed=1))


@pytest.mark.parametrize("name", OPTIMIZERS)
@pytest.mark.parametrize("ranks", [1, 2, 3, 4])
def test_every_optimizer_reads_the_shared_sum_and_no_gradient_flat_is_written(ranks, name):
    make_opt, storage, _ = OPTIMIZERS[name]
    cfg, dist = build(ranks, make_opt, storage=storage)
    received = []
    unpack = dist.reducer.unpack_grads

    def spying_unpack(r, bucket, summed, **kw):
        received.append(summed)
        return unpack(r, bucket, summed, **kw)

    dist.reducer.unpack_grads = spying_unpack
    own = {}  # rank -> its gradient flat as the fold left it
    fold = dist._resolve_pool().reduce_map

    def snapshot_after_the_last_fold(*args, **kw):
        out = fold(*args, **kw)
        own.update({r: m.dense.grads.copy() for r, m in enumerate(dist.models)})
        return out

    dist.pool = dist._resolve_pool()
    dist.pool.reduce_map = snapshot_after_the_last_fold
    for opt in dist.optimizers:
        step_dense = opt.step_dense
        opt.step_dense = lambda params, _step=step_dense, **kw: (
            received.extend(kw.values()),
            _step(params, **kw),
        )
    sums = []
    try:
        for step in range(2):
            dist.train_step(random_batch(cfg, 24, seed=step))
            sums.append(dist._reduced.copy())
            for r, model in enumerate(dist.models):  # the dense step read, never wrote
                np.testing.assert_array_equal(model.dense.grads, own[r])
    finally:
        del dist.pool.reduce_map
    assert len(received) == 2 * ranks * 3  # two buckets and the whole flat, a rank a step
    for summed in received:
        assert not summed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            summed[...] = 0.0
        assert np.shares_memory(summed, dist._reduced)
        assert not any(np.shares_memory(summed, m.dense.grads) for m in dist.models)
    assert sums[0].any() and not np.array_equal(sums[0], sums[1])
    if ranks == 1:  # a one-rank "sum" is a copy, not the rank's own flat
        np.testing.assert_array_equal(dist._reduced, dist.models[0].dense.grads)
    else:  # a rank's own gradients are not the sum: reading them would show
        assert not np.array_equal(dist._reduced, dist.models[0].dense.grads)


class TestSparseDispatch:
    """``racefree`` and ``fused`` take the bag-level gradients; only the
    strategies without that entry materialise Alg. 2's gradient."""

    @pytest.mark.parametrize(
        "strategy,bag_level", [("racefree", True), ("fused", True), ("reference", False)]
    )
    def test_which_entry_a_distributed_step_takes(self, strategy, bag_level):
        cfg, dist = build(make_opt=lambda: SGD(lr=0.05, strategy=make_strategy(strategy, 4)))
        fused, backward = FusedBackwardUpdate.apply_fused, EmbeddingBag.backward
        with mock.patch.object(
            FusedBackwardUpdate, "apply_fused", autospec=True, side_effect=fused
        ) as updates, mock.patch.object(
            EmbeddingBag, "backward", autospec=True, side_effect=backward
        ) as backwards:
            dist.train_step(random_batch(cfg, 24, seed=0, ragged=True))
        assert (updates.call_count, backwards.call_count) == ((4, 0) if bag_level else (0, 4))
        if bag_level:  # one call a rank, on the rank's slab
            assert [c.args[1] for c in updates.call_args_list] == [m.slab for m in dist.models]

    def test_an_optimizer_with_row_state_keeps_the_materialised_gradient(self):
        cfg, dist = build(make_opt=lambda: SparseAdagrad(lr=0.05))
        with mock.patch.object(
            EmbeddingBag, "backward", autospec=True, side_effect=EmbeddingBag.backward
        ) as backwards:
            dist.train_step(random_batch(cfg, 24, seed=0))
        assert backwards.call_count == cfg.num_tables
