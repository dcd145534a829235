"""Hybrid-parallel DLRM on a simulated 8-socket node (paper Sect. IV).

One RunSpec, two parallelism sections, one :class:`~repro.train.Trainer`:
``make_trainer`` puts a single model behind it for ``ranks=1`` and a
hybrid-parallel one (model-parallel embeddings, data-parallel MLPs,
alltoall at the interaction) for ``ranks=4`` -- the same loop over a
different executor.  Both train the same global minibatches; the losses
agree, and the virtual cluster's per-rank time profile shows where the
iteration went.

Usage:  python examples/distributed_training.py
"""

import numpy as np

from repro.util import format_seconds
from repro.train import RunSpec, make_trainer

RANKS = 4


def main(steps: int = 5, minibatch: int = 64) -> None:
    base = {
        "name": "hybrid-vs-single",
        "model": {"config": "small", "rows_cap": 2000, "minibatch": minibatch,
                  "seed": 11},
        "data": {"name": "random", "seed": 3},
        "optimizer": {"name": "sgd", "lr": 0.05},
        "schedule": {"steps": steps, "batch_size": minibatch,
                     "eval_size": minibatch * RANKS},
    }

    # Single-process reference: its loss is normalised by the batch, like
    # the distributed run's global-minibatch loss, so the two compare
    # directly.
    single = make_trainer(RunSpec.from_dict(base)).fit()

    # Hybrid-parallel run on the simulated 8-socket SKX node.
    dist = make_trainer(
        RunSpec.from_dict({**base, "parallel": {"ranks": RANKS, "platform": "node"}})
    ).fit()

    print(f"{RANKS}-rank hybrid parallel vs single process "
          f"({single.model.cfg.num_tables} tables round-robin over ranks):")
    for i, (a, b) in enumerate(zip(single.losses, dist.losses)):
        print(f"  step {i}: single = {a:.6f}   distributed = {b:.6f}   "
              f"|diff| = {abs(a - b):.2e}")
    assert np.allclose(single.losses, dist.losses, rtol=1e-5)
    print("  -> losses agree (the Sect. IV parallelisation is exact)\n")

    cluster = dist.dist.cluster
    print("per-rank virtual-time profile (rank 0):")
    prof = cluster.profilers[0]
    for cat in prof.categories():
        print(f"  {cat:32s} {format_seconds(prof.get(cat))}")
    print(f"\nvirtual wall-clock on rank 0: {format_seconds(cluster.clocks[0].now)}")
    print(f"compute bucket: {format_seconds(prof.compute_time())}   "
          f"exposed communication: {format_seconds(prof.comm_time())}")


if __name__ == "__main__":
    main()
