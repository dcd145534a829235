"""The functional hybrid model and its analytic twin must agree.

``DistributedDLRM`` (real numerics + timing) and ``model_iteration``
(shape-only timing) implement the same iteration; this module pins them
together: same phase categories, same collective issue pattern, and --
when fed the same shapes and index statistics -- closely matching
charge totals.
"""

import pytest

from repro.core.optim import SGD
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM
from repro.parallel.timing import model_iteration
from tests.conftest import random_batch, tiny_config


def functional_profile(cfg, r=2, backend="ccl"):
    cluster = SimCluster(r, backend=backend)
    dist = DistributedDLRM(cfg, cluster, seed=0)
    dist.attach_optimizers(lambda: SGD(lr=0.05))
    dist.train_step(random_batch(cfg, cfg.global_minibatch, seed=1))
    return cluster.profilers[0]


def analytic_profile(cfg, r=2, backend="ccl"):
    """The functional model charges no loader: neither does this twin."""
    res = model_iteration(
        cfg,
        r,
        backend=backend,
        loader_mode="none",
        distribution="uniform",
        global_n=cfg.global_minibatch,
    )
    return res.profilers[0]


class TestEngineConsistency:
    def test_same_phase_categories(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        f = set(functional_profile(cfg).as_dict())
        a = set(analytic_profile(cfg).as_dict())
        assert f == a

    @pytest.mark.parametrize("backend", ["ccl", "mpi"])
    def test_compute_charges_close(self, backend):
        """Same shapes -> per-category compute charges within 20% (the
        engines sample index statistics independently)."""
        cfg = tiny_config(num_tables=4, minibatch=16)
        f = functional_profile(cfg, backend=backend)
        a = analytic_profile(cfg, backend=backend)
        for cat in (
            "compute.mlp.bottom.fwd",
            "compute.mlp.top.fwd",
            "compute.mlp.top.bwd",
            "compute.mlp.bottom.bwd",
            "compute.interaction.fwd",
            "compute.framework",
            "update.dense",
        ):
            assert f.get(cat) == pytest.approx(a.get(cat), rel=0.05), cat
        # Embedding charges depend on sampled indices: looser band.
        assert f.total("compute.embedding") == pytest.approx(
            a.total("compute.embedding"), rel=0.3
        )

    def test_comm_framework_charges_match(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        f = functional_profile(cfg)
        a = analytic_profile(cfg)
        assert f.get("comm.alltoall.framework") == pytest.approx(
            a.get("comm.alltoall.framework"), rel=0.05
        )
        assert f.get("comm.allreduce.framework") == pytest.approx(
            a.get("comm.allreduce.framework"), rel=0.05
        )

    def test_iteration_times_close(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        cluster = SimCluster(2, backend="ccl")
        dist = DistributedDLRM(cfg, cluster, seed=0)
        dist.attach_optimizers(lambda: SGD(lr=0.05))
        snap = cluster.snapshot()
        dist.train_step(random_batch(cfg, cfg.global_minibatch, seed=1))
        functional_time = cluster.elapsed_since(snap)
        analytic_time = model_iteration(
            cfg, 2, backend="ccl", distribution="uniform",
            global_n=cfg.global_minibatch,
        ).iteration_time
        assert functional_time == pytest.approx(analytic_time, rel=0.2)
