"""Embedding-exchange strategies: identical data, different cost."""

import numpy as np
import pytest

from repro.comm.strategies import EXCHANGE_STRATEGIES, make_exchange
from repro.parallel.cluster import SimCluster

ALL = sorted(EXCHANGE_STRATEGIES)


def setup_exchange(rng, r=4, s=6, gn=8, e=4):
    owners = [t % r for t in range(s)]  # round robin, the paper's distribution
    emb_out = [dict() for _ in range(r)]
    truth = {}
    for t, o in enumerate(owners):
        buf = rng.standard_normal((gn, e)).astype(np.float32)
        emb_out[o][t] = buf
        truth[t] = buf
    return owners, emb_out, truth


@pytest.mark.parametrize("name", ALL)
class TestFunctionalEquivalence:
    def test_forward_redistributes_slices(self, name, rng):
        cluster = SimCluster(4, backend="ccl")
        owners, emb_out, truth = setup_exchange(rng)
        out, handle = make_exchange(name).forward(cluster, emb_out, owners)
        handle.wait_all()
        ln = 2
        for r in range(4):
            for t in range(6):
                np.testing.assert_array_equal(
                    out[r][t], truth[t][r * ln : (r + 1) * ln]
                )

    def test_backward_is_exact_transpose(self, name, rng):
        cluster = SimCluster(4, backend="ccl")
        owners, emb_out, truth = setup_exchange(rng)
        strategy = make_exchange(name)
        out, h = strategy.forward(cluster, emb_out, owners)
        h.wait_all()
        # Send the slices straight back; owners must reassemble exactly.
        grads, h2 = strategy.backward(cluster, out, owners)
        h2.wait_all()
        for t, o in enumerate(owners):
            np.testing.assert_array_equal(grads[o][t], truth[t])

    def test_all_strategies_move_identical_data(self, name, rng):
        cluster_a = SimCluster(4, backend="ccl")
        cluster_b = SimCluster(4, backend="ccl")
        owners, emb_out, _ = setup_exchange(rng)
        ref, h = make_exchange("alltoall").forward(cluster_a, emb_out, owners)
        h.wait_all()
        got, h2 = make_exchange(name).forward(cluster_b, emb_out, owners)
        h2.wait_all()
        for r in range(4):
            for t in range(6):
                np.testing.assert_array_equal(got[r][t], ref[r][t])


class TestCostOrdering:
    """Fig. 9's headline: alltoall > fused scatter >= scatterlist."""

    @staticmethod
    def exchange_wait(name, backend="mpi", r=8, s=16, gn=64, e=32):
        cluster = SimCluster(r, backend=backend, blocking=True)
        rng = np.random.default_rng(0)
        owners, emb_out, _ = setup_exchange(rng, r=r, s=s, gn=gn, e=e)
        make_exchange(name).forward(cluster, emb_out, owners)
        return cluster.profilers[0].get("comm.alltoall.wait")

    def test_alltoall_beats_scatters(self):
        a2a = self.exchange_wait("alltoall")
        fused = self.exchange_wait("fused")
        slist = self.exchange_wait("scatterlist")
        assert a2a < fused
        assert a2a < slist

    def test_fused_no_worse_than_scatterlist(self):
        assert self.exchange_wait("fused") <= self.exchange_wait("scatterlist") * 1.01

    def test_framework_cost_comparable_across_strategies(self):
        """Fig. 11: pre/post-processing is the same for every variant."""
        costs = []
        for name in ALL:
            cluster = SimCluster(4, backend="ccl", blocking=True)
            rng = np.random.default_rng(0)
            owners, emb_out, _ = setup_exchange(rng)
            make_exchange(name).forward(cluster, emb_out, owners)
            costs.append(cluster.profilers[0].get("comm.alltoall.framework"))
        assert max(costs) == pytest.approx(min(costs), rel=1e-6)


class TestFactory:
    def test_unknown(self):
        with pytest.raises(ValueError):
            make_exchange("pipeline")

    @pytest.mark.parametrize("name", ALL)
    def test_names_round_trip(self, name):
        assert make_exchange(name).name == name
