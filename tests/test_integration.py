"""End-to-end integration: the flows a downstream user would run.

These tests cross module boundaries on purpose: dataset -> model ->
optimizer -> metrics, hybrid-parallel training over multiple steps with
evaluation, the paper-scale analytic sweeps, and the public package
surface.
"""

import numpy as np
import pytest

import repro
from repro.core.config import SMALL
from repro.core.metrics import roc_auc
from repro.core.model import DLRM
from repro.core.optim import SGD, SplitSGD
from repro.data.criteo import SyntheticCriteoDataset
from repro.data.synthetic import RandomRecDataset
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM
from repro.parallel.timing import model_iteration
from tests.conftest import capacity_bytes, predict_proba, tiny_config


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_configs_importable_from_top(self):
        assert repro.get_config("small") is repro.SMALL


class TestSingleSocketWorkflow:
    def test_train_eval_loop_improves_auc(self):
        cfg = tiny_config(num_tables=3, rows=300, dim=8, lookups=2, dense=6)
        data = SyntheticCriteoDataset(cfg, seed=0)
        model = DLRM(cfg, seed=1)
        opt = SGD(lr=0.1)
        test = data.batch(2048, 99_999)
        auc_before = roc_auc(test.labels, predict_proba(model, test))
        for batch in data.batches(128, 40):
            model.train_step(batch, opt)
        auc_after = roc_auc(test.labels, predict_proba(model, test))
        assert auc_after > auc_before + 0.05

    def test_checkpointless_determinism(self):
        """Two identical runs produce identical weights."""
        cfg = tiny_config()
        def run():
            data = RandomRecDataset(cfg, seed=2)
            model = DLRM(cfg, seed=3)
            opt = SGD(lr=0.05)
            for b in data.batches(cfg.minibatch, 5):
                model.train_step(b, opt)
            return model
        a, b = run(), run()
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)
        np.testing.assert_array_equal(
            a.tables[0].dense_weight(), b.tables[0].dense_weight()
        )


class TestDistributedWorkflow:
    def test_multi_step_training_with_loader(self):
        """Loader -> shards -> hybrid steps, on a learnable dataset."""
        cfg = tiny_config(num_tables=4, minibatch=16)
        cluster = SimCluster(4, backend="ccl")
        dist = DistributedDLRM(cfg, cluster, seed=0)
        dist.attach_optimizers(lambda: SGD(lr=0.1))
        data = SyntheticCriteoDataset(cfg, seed=1)
        losses = []
        for g in data.batches(64, 12):
            shards = g.shard(4)
            assert len(shards) == 4 and shards[0].size == 16
            losses.append(dist.train_step(g))
        # Fresh noisy batches each step: training must stay stable and
        # bounded (learnability itself is pinned by the AUC test below).
        assert all(np.isfinite(losses))
        assert max(losses) < 1.5

    def test_distributed_auc_matches_single(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        data = SyntheticCriteoDataset(cfg, seed=0)
        test = data.batch(512, 777)
        single = DLRM(cfg, seed=9)
        opt = SGD(lr=0.1)
        cluster = SimCluster(2, backend="ccl")
        dist = DistributedDLRM(cfg, cluster, seed=9)
        dist.attach_optimizers(lambda: SGD(lr=0.1))
        for i in range(5):
            batch = data.batch(32, i)
            single.train_step(batch, opt, normalizer=batch.size)
            dist.train_step(batch)
        auc_single = roc_auc(test.labels, predict_proba(single, test))
        auc_dist = roc_auc(test.labels, dist.predict_proba(test))
        assert auc_dist == pytest.approx(auc_single, abs=1e-3)

    def test_split_bf16_distributed_multi_step(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        cluster = SimCluster(4, backend="mpi", blocking=True)
        dist = DistributedDLRM(
            cfg, cluster, seed=0, storage="split_bf16", exchange="fused"
        )
        dist.attach_optimizers(lambda: SplitSGD(lr=0.05))
        data = RandomRecDataset(cfg, seed=4)
        losses = [dist.train_step(data.batch(16, i)) for i in range(8)]
        assert losses[-1] < losses[0]


class TestPaperScaleSweeps:
    def test_all_configs_all_backends_run(self):
        for cfg in ("small", "large", "mlperf"):
            base = repro.get_config(cfg)
            r = min(4, base.max_ranks)
            for backend in ("mpi", "ccl"):
                res = model_iteration(cfg, r, backend=backend)
                assert res.iteration_time > 0
                assert res.compute_time > 0

    def test_large_cannot_run_single_socket(self):
        """Table II: the large config needs >= 4 sockets of capacity."""
        assert SMALL.min_sockets(192e9) == 1
        assert repro.LARGE.min_sockets(192e9) == 4

    def test_timing_is_deterministic(self):
        a = model_iteration("mlperf", 8)
        b = model_iteration("mlperf", 8)
        assert a.iteration_time == b.iteration_time

    def test_node_and_cluster_platforms_differ(self):
        node = model_iteration("small", 8, platform="node", blocking=True)
        cl = model_iteration("small", 8, platform="cluster", blocking=True)
        assert node.iteration_time != cl.iteration_time


class TestMemoryAccounting:
    def test_split_storage_halves_model_bytes_at_same_capacity(self):
        cfg = tiny_config()
        fp32 = DLRM(cfg, seed=0)
        split = DLRM(cfg, seed=0, storage="split_bf16")
        # Total capacity equal (no master copy), but the *model* half the
        # forward pass touches is 2 bytes/element instead of 4.
        assert capacity_bytes(split) == capacity_bytes(fp32)
        t = split.tables[0]
        assert t.hi.nbytes * 2 == t.hi.nbytes + t.lo.nbytes
