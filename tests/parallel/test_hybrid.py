"""Hybrid-parallel DLRM: the distributed == single-process invariant.

This is the load-bearing test of the whole runtime: for every exchange
strategy, backend and rank count, R-rank training must reproduce the
single-process model on the same global minibatch (up to FP32 summation
order for the dense half; bit-exact for the embedding updates).
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.model import DLRM
from repro.core.optim import SGD, SplitSGD
from repro.core.update import make_strategy
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM
from tests.conftest import predict_proba, random_batch, tiny_config


def build_distributed(cfg, r, exchange="alltoall", backend="ccl", **kw):
    cluster = SimCluster(r, backend=backend)
    dist = DistributedDLRM(cfg, cluster, seed=7, exchange=exchange, **kw)
    dist.attach_optimizers(lambda: SGD(lr=0.05))
    return dist


def train_reference(cfg, batches):
    model = DLRM(cfg, seed=7)
    opt = SGD(lr=0.05)
    losses = [model.train_step(b, opt, normalizer=b.size) for b in batches]
    return model, losses


class TestEquivalence:
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_losses_match_single_process(self, r):
        cfg = tiny_config(num_tables=4, minibatch=16)
        batches = [random_batch(cfg, 16, seed=s) for s in range(3)]
        _, ref_losses = train_reference(cfg, batches)
        dist = build_distributed(cfg, r)
        dist_losses = [dist.train_step(b) for b in batches]
        np.testing.assert_allclose(dist_losses, ref_losses, rtol=1e-5)

    @pytest.mark.parametrize("exchange", ["scatterlist", "fused", "alltoall"])
    def test_weights_match_for_every_exchange_strategy(self, exchange):
        cfg = tiny_config(num_tables=4, minibatch=16)
        batches = [random_batch(cfg, 16, seed=s) for s in range(2)]
        ref, _ = train_reference(cfg, batches)
        dist = build_distributed(cfg, 2, exchange=exchange)
        for b in batches:
            dist.train_step(b)
        for t in range(cfg.num_tables):
            owner = dist.owners[t]
            np.testing.assert_allclose(
                dist.models[owner].tables[t].dense_weight(),
                ref.tables[t].dense_weight(),
                rtol=1e-5,
                atol=1e-7,
            )
        for pr, pd in zip(ref.parameters(), dist.models[0].parameters()):
            np.testing.assert_allclose(pd.value, pr.value, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("backend", ["mpi", "ccl"])
    def test_backend_does_not_change_numerics(self, backend):
        cfg = tiny_config(num_tables=4, minibatch=16)
        batch = random_batch(cfg, 16)
        dist = build_distributed(cfg, 2, backend=backend)
        loss = dist.train_step(batch)
        _, ref_losses = train_reference(cfg, [batch])
        assert loss == pytest.approx(ref_losses[0], rel=1e-5)

    def test_embedding_updates_bit_exact_across_ranks(self):
        """The sparse path has no reordering: bitwise equality holds."""
        cfg = tiny_config(num_tables=4, minibatch=16)
        batch = random_batch(cfg, 16)
        ref, _ = train_reference(cfg, [batch])
        dist = build_distributed(cfg, 4)
        dist.train_step(batch)
        for t in range(cfg.num_tables):
            owner = dist.owners[t]
            np.testing.assert_array_equal(
                dist.models[owner].tables[t].dense_weight(),
                ref.tables[t].dense_weight(),
            )

    def test_replicated_dense_params_stay_in_sync(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        dist = build_distributed(cfg, 4)
        for s in range(3):
            dist.train_step(random_batch(cfg, 16, seed=s))
        for p0, p1 in zip(dist.models[0].parameters(), dist.models[3].parameters()):
            np.testing.assert_array_equal(p0.value, p1.value)

    def test_update_strategy_choice_does_not_change_numerics(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        batch = random_batch(cfg, 16)
        a = build_distributed(cfg, 2)
        b = SimCluster(2, backend="ccl")
        dist_b = DistributedDLRM(cfg, b, seed=7)
        dist_b.attach_optimizers(
            lambda: SGD(lr=0.05, strategy=make_strategy("atomic"))
        )
        la = a.train_step(batch)
        lb = dist_b.train_step(batch)
        assert la == pytest.approx(lb, rel=1e-6)

    def test_split_bf16_distributed_matches_single(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        batch = random_batch(cfg, 16)
        ref = DLRM(cfg, seed=7, storage="split_bf16")
        ref_opt = SplitSGD(lr=0.05)
        ref_opt.register(ref.parameters())
        ref_loss = ref.train_step(batch, ref_opt, normalizer=batch.size)
        cluster = SimCluster(2, backend="ccl")
        dist = DistributedDLRM(cfg, cluster, seed=7, storage="split_bf16")
        dist.attach_optimizers(lambda: SplitSGD(lr=0.05))
        dist_loss = dist.train_step(batch)
        assert dist_loss == pytest.approx(ref_loss, rel=1e-5)

    def test_predict_proba_matches_single_process(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        batch = random_batch(cfg, 16)
        ref = DLRM(cfg, seed=7)
        dist = build_distributed(cfg, 2)
        np.testing.assert_allclose(
            dist.predict_proba(batch), predict_proba(ref, batch), rtol=1e-4, atol=1e-6
        )


    @pytest.mark.parametrize("logit", [100.0, -100.0])
    def test_predict_proba_is_the_stable_sigmoid_bitwise(self, logit):
        """``1 / (1 + exp(-x))`` overflows below -88 and rounds to an
        exact 0.0 (an infinite log-loss); distributed eval uses the
        single-process model's sigmoid instead, to the bit."""
        cfg = tiny_config(num_tables=4, minibatch=16)
        batch = random_batch(cfg, 16)
        ref = DLRM(cfg, seed=7)
        dist = build_distributed(cfg, 2)
        for model in [ref, *dist.models]:
            model.top.layers[-1].weight.value[...] = 0.0
            model.top.layers[-1].bias.value[...] = logit
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "overflow encountered in exp"
            got = dist.predict_proba(batch)
        assert got.dtype == np.float32 and got.shape == (16,)
        want = predict_proba(ref, batch)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        assert (got == 1.0).all() if logit > 0 else ((got > 0) & (got < 1e-43)).all()


class TestBucketing:
    """Bucket size moves only the *issue points* of the gradient
    allreduce; bucket membership and the canonical summation tree are
    fixed, so every ``bucket_mb`` must be bitwise identical."""

    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_bucket_mb_does_not_change_bits(self, storage):
        cfg = tiny_config(num_tables=4, minibatch=16)
        batches = [random_batch(cfg, 16, seed=s) for s in range(3)]

        def run(bucket_mb):
            cluster = SimCluster(4, backend="ccl")
            dist = DistributedDLRM(
                cfg, cluster, seed=7, storage=storage, bucket_mb=bucket_mb
            )
            if storage == "split_bf16":
                dist.attach_optimizers(lambda: SplitSGD(lr=0.05))
            else:
                dist.attach_optimizers(lambda: SGD(lr=0.05))
            losses = [dist.train_step(b) for b in batches]
            weights = [p.value.copy() for p in dist.models[0].parameters()]
            clocks = [c.now for c in cluster.clocks]
            return losses, weights, clocks

        base_losses, base_weights, base_clocks = run(4.0)
        # 1e-4 MiB = ~105 bytes: every layer its own bucket on this config.
        for bucket_mb in (64.0, 1e-4):
            losses, weights, clocks = run(bucket_mb)
            assert losses == base_losses  # bitwise: no approx
            for w, bw in zip(weights, base_weights):
                np.testing.assert_array_equal(w, bw)
            assert clocks == base_clocks or bucket_mb == 1e-4
            # Virtual clocks may legitimately differ across bucket sizes
            # (different issue points change exposure) -- but the numerics
            # never do.

    def test_small_buckets_issue_more_collectives(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        batch = random_batch(cfg, 16)

        def n_allreduce_issues(bucket_mb):
            dist = build_distributed(cfg, 2, bucket_mb=bucket_mb)
            dist.train_step(batch)
            return dist.cluster._issue_seq

        assert n_allreduce_issues(1e-4) > n_allreduce_issues(64.0)

    def test_default_buckets_expose_no_more_wait_than_one_bucket(self):
        """The overlap issue-as-ready buckets buy, on the virtual clocks:
        at the default cap the MLP's gradients leave in several buckets,
        the first under the backward of the layers still running, and the
        four ranks wait no longer than for the same bytes in one bucket."""
        cfg = dataclasses.replace(
            tiny_config(dim=128, minibatch=64),
            bottom_mlp=(512, 256, 128), top_mlp=(1024, 1024, 512, 256, 1),
        )
        batch = random_batch(cfg, 64)

        def exposed(**bucket):
            dist = build_distributed(cfg, 4, **bucket)
            dist.train_step(batch)
            waits = sum(p.comm_time() for p in dist.cluster.profilers)
            return waits, dist.cluster._issue_seq

        (default, issues), (one, one_issues) = exposed(), exposed(bucket_mb=1e6)
        assert issues > one_issues
        assert default <= one

    def test_bucket_mb_validated(self):
        cfg = tiny_config(num_tables=4)
        with pytest.raises(ValueError, match="bucket_mb"):
            DistributedDLRM(cfg, SimCluster(2, backend="ccl"), bucket_mb=0.0)


class TestValidation:
    def test_more_ranks_than_tables_rejected(self):
        cfg = tiny_config(num_tables=2)
        with pytest.raises(ValueError, match="model parallelism"):
            DistributedDLRM(cfg, SimCluster(3, backend="ccl"))

    def test_step_without_optimizers_raises(self):
        cfg = tiny_config()
        dist = DistributedDLRM(cfg, SimCluster(2, backend="ccl"))
        with pytest.raises(RuntimeError, match="attach_optimizers"):
            dist.train_step(random_batch(cfg, 16))

    def test_indivisible_global_batch_rejected(self):
        cfg = tiny_config(num_tables=4)
        dist = build_distributed(cfg, 4)
        with pytest.raises(ValueError, match="divisible"):
            dist.train_step(random_batch(cfg, 18))


class TestTimingSideEffects:
    def test_profiler_covers_expected_categories(self):
        cfg = tiny_config(num_tables=4, minibatch=16)
        dist = build_distributed(cfg, 2)
        dist.train_step(random_batch(cfg, 16))
        p = dist.cluster.profilers[0]
        for cat in (
            "compute.embedding.fwd",
            "compute.mlp.bottom.fwd",
            "compute.mlp.top.bwd",
            "compute.interaction.fwd",
            "update.sparse",
            "update.dense",
            "comm.alltoall.framework",
            "comm.allreduce.framework",
        ):
            assert p.total(cat) > 0, cat
        # Batches arrive built: only the analytic twin prices a loader.
        assert p.get("data.loader") == 0.0

