"""The hybrid-parallel dense step, optimizer by optimizer.

Every rank's dense step reads one shared allreduce sum where it lies
(``step_dense(params, reduced=)``), so each optimizer's *state* (lo
halves, velocity, Adagrad accumulators, master copies) has to come out
exactly as if the rank had summed the gradients itself.  The other
distributed tests compare two runs through the same step; these compare
against something that never enters it: the single-process model, and a
replay that tree-sums the captured per-rank gradients and steps tensor
by tensor.
"""

import inspect

import numpy as np
import pytest

from repro.comm.collectives import tree_sum
from repro.core.model import DLRM
from repro.core.optim import SGD, MasterWeightSGD, SparseAdagrad, SplitSGD
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM
from tests.conftest import assert_same_bits, random_batch, tiny_config

STEPS = 4
#: name -> (optimizer factory, table storage, checkpoint key of its dense state)
OPTIMIZERS = {
    "sgd": (lambda: SGD(lr=0.05), "fp32", None),
    "sgd_momentum": (lambda: SGD(lr=0.05, momentum=0.9), "fp32", "velocity"),
    "split_sgd": (lambda: SplitSGD(lr=0.05), "split_bf16", "lo"),
    "adagrad": (lambda: SparseAdagrad(lr=0.05), "fp32", "dense"),
    "master_weight": (lambda: MasterWeightSGD(lr=0.05), "fp32", "master"),
}


def build(name: str, ranks: int):
    make_opt, storage, _ = OPTIMIZERS[name]
    cfg = tiny_config(num_tables=4, minibatch=16)
    dist = DistributedDLRM(cfg, SimCluster(ranks, backend="ccl"), seed=7, storage=storage)
    dist.attach_optimizers(make_opt)
    return cfg, dist


def dense_state(model: DLRM, opt: SGD) -> dict:
    """Dense weights and dense optimizer state of one replica."""
    state = {f"value.{i}": p.value for i, p in enumerate(model.parameters())}
    state.update(opt.state_dict(model.parameters(), tables={}))
    return state


@pytest.mark.parametrize("name", OPTIMIZERS)
def test_every_optimizer_takes_the_shared_sum_and_keeps_its_state_in_the_slabs_layout(name):
    make_opt, storage, key = OPTIMIZERS[name]
    cfg, dist = build(name, ranks=2)
    dist.train_step(random_batch(cfg, 16, seed=0))
    for model, opt in zip(dist.models, dist.optimizers):
        assert inspect.signature(type(opt).step_dense).parameters.keys() == {
            "self", "params", "reduced"
        }
        assert opt.state_key == key
        state = opt.state_dict(model.parameters(), tables={})
        assert {k.split(".")[0] for k in state} - {"lr", "momentum"} == ({key} if key else set())
        for i, p in enumerate(model.parameters()):
            if key is None:
                with pytest.raises(RuntimeError, match="not registered with SGD"):
                    opt.state_view(p)
            else:  # the checkpoint entry is a copy of the live per-parameter view
                view = opt.state_view(p)
                assert view.shape == p.shape and view.any()
                assert_same_bits({"s": state[f"{key}.{i}"]}, {"s": view}, f"{key}.{i}")
                assert not np.shares_memory(state[f"{key}.{i}"], view)


@pytest.mark.parametrize("name", OPTIMIZERS)
def test_one_rank_is_the_single_process_step_bitwise(name):
    make_opt, storage, _ = OPTIMIZERS[name]
    cfg, dist = build(name, ranks=1)
    model, opt = DLRM(cfg, seed=7, storage=storage), make_opt()
    opt.register(model.parameters())
    for step in range(STEPS):
        batch = random_batch(cfg, 16, seed=step, ragged=step % 2 == 1)
        assert dist.train_step(batch) == model.train_step(batch, opt, normalizer=batch.size)
    assert_same_bits(dist.state_dict(), model.state_dict(), "weights")
    assert_same_bits(
        dist.optimizer_state_dict(), opt.state_dict(model.parameters(), model.tables), "optimizer"
    )


@pytest.mark.parametrize("name", OPTIMIZERS)
def test_every_rank_steps_like_a_tensor_by_tensor_replay_of_the_summed_gradients(name):
    make_opt, storage, _ = OPTIMIZERS[name]
    cfg, dist = build(name, ranks=4)
    # The replay: same seeded dense weights, a fresh optimizer, and no
    # part of the distributed step -- it is handed each rank's gradients
    # as the reduce tasks returned them.
    replay, replay_opt = DLRM(cfg, seed=7, storage=storage), make_opt()
    replay_opt.register(replay.parameters())
    position = {p: i for m in dist.models for i, p in enumerate(m.parameters())}
    captured: dict[int, list] = {}
    pack = dist.reducer.pack_grads

    def capturing_pack(r, bucket, **kw):
        for p in bucket.params:
            captured.setdefault(position[p], [None] * 4)[r] = p.grad.copy()
        return pack(r, bucket, **kw)

    dist.reducer.pack_grads = capturing_pack
    for step in range(STEPS):
        captured.clear()
        dist.train_step(random_batch(cfg, 16, seed=step))
        assert sorted(captured) == list(range(len(replay.parameters())))
        for i, p in enumerate(replay.parameters()):
            p.accumulate_grad(tree_sum(captured[i]))
            replay_opt.step_dense([p])
    want = dense_state(replay, replay_opt)
    state_keys = {k for k in want if not k.startswith("value.")} - {"lr"}
    assert bool(state_keys) == (name != "sgd")  # there is state to get wrong
    for r, (model, opt) in enumerate(zip(dist.models, dist.optimizers)):
        assert_same_bits(dense_state(model, opt), want, f"rank {r}")
