"""Parallel-rank DistributedDLRM == sequential, bit for bit.

ISSUE 4's rank-level contract: with a wide worker pool, each rank's
compute phases run on their own threads, synchronizing only at the
functional collectives.  Because rank state is disjoint and every
cross-rank reduction keeps its fixed rank order, losses, weights,
optimizer state, predictions -- and the virtual clocks -- must be
bitwise identical to the one-thread run, in FP32 and Split-BF16.
"""

import numpy as np
import pytest

from repro.core.optim import SGD
from repro.data.synthetic import RandomRecDataset
from repro.exec.pool import WorkerPool
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM

from tests.conftest import tiny_config

RANKS = 4
STEPS = 3


def run_training(workers: int, storage: str, exchange: str = "alltoall"):
    cfg = tiny_config(num_tables=4, rows=200, minibatch=16)
    dataset = RandomRecDataset(cfg, seed=3)
    cluster = SimCluster(RANKS, platform="cluster")
    dist = DistributedDLRM(
        cfg, cluster, seed=1, storage=storage, exchange=exchange, pool=WorkerPool(workers)
    )
    dist.attach_optimizers(lambda: SGD(lr=0.05))
    losses = [
        dist.train_step(dataset.batch(cfg.global_minibatch, i))
        for i in range(STEPS)
    ]
    probs = dist.predict_proba(dataset.batch(cfg.global_minibatch, 99))
    return {
        "losses": losses,
        "state": dist.state_dict(),
        "opt": dist.optimizer_state_dict(),
        "probs": probs,
        "clocks": [c.now for c in cluster.clocks],
        "profiles": [dict(p._times) for p in cluster.profilers],
    }


@pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
@pytest.mark.parametrize("workers", [2, 4, 8])
def test_parallel_ranks_bit_identical(storage, workers):
    sequential = run_training(1, storage)
    parallel = run_training(workers, storage)
    assert parallel["losses"] == sequential["losses"]
    assert np.array_equal(parallel["probs"], sequential["probs"])
    for key, want in sequential["state"].items():
        assert np.array_equal(parallel["state"][key], want), key
    for key, want in sequential["opt"].items():
        assert np.array_equal(parallel["opt"][key], want), key


def test_sim_cluster_timing_unchanged():
    """Virtual clocks and profiler categories are a pure function of the
    charge/issue schedule -- thread execution must not move a nanosecond."""
    sequential = run_training(1, "fp32")
    parallel = run_training(4, "fp32")
    assert parallel["clocks"] == sequential["clocks"]
    assert parallel["profiles"] == sequential["profiles"]


def test_scatterlist_exchange_also_identical():
    sequential = run_training(1, "fp32", exchange="scatterlist")
    parallel = run_training(4, "fp32", exchange="scatterlist")
    assert parallel["losses"] == sequential["losses"]
    for key, want in sequential["state"].items():
        assert np.array_equal(parallel["state"][key], want), key
