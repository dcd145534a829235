"""Collective cost model: alpha-beta behaviour on routed fabrics."""

import pytest

from repro.hw.network import CollectiveCost, NetworkModel
from repro.hw.topology import pruned_fat_tree, twisted_hypercube

from tests.hw.test_topology import single_switch

MB = 1e6


@pytest.fixture
def fat_tree() -> NetworkModel:
    return NetworkModel(pruned_fat_tree(64))


@pytest.fixture
def node() -> NetworkModel:
    return NetworkModel(twisted_hypercube(8), alltoall_inefficiency=1.6)


class TestCollectiveCost:
    def test_scaled_divides_transfer_only(self):
        c = CollectiveCost(transfer=2.0, latency=0.5)
        s = c.scaled(0.5)
        assert s.transfer == 4.0 and s.latency == 0.5

    def test_scaled_validates(self):
        with pytest.raises(ValueError):
            CollectiveCost(1.0, 0.0).scaled(0.0)


class TestAllreduce:
    def test_volume_independent_of_rank_count(self, fat_tree):
        """Eq. 1's consequence: allreduce transfer ~ 2*bytes/bw for any R."""
        t8 = fat_tree.allreduce(list(range(8)), 100 * MB).transfer
        t32 = fat_tree.allreduce(list(range(32)), 100 * MB).transfer
        assert t32 == pytest.approx(t8, rel=0.2)

    def test_approaches_2x_bytes_over_bw(self, fat_tree):
        nbytes = 1000 * MB
        t = fat_tree.allreduce(list(range(32)), nbytes).transfer
        # The ring's slowest hop is the intra-node UPI link (11 GB/s).
        ideal = 2 * nbytes / 11e9
        assert t == pytest.approx(ideal, rel=0.1)

    def test_equals_rs_plus_ag(self, fat_tree):
        p = list(range(16))
        ar = fat_tree.allreduce(p, 64 * MB)
        rs = fat_tree.reduce_scatter(p, 64 * MB)
        ag = fat_tree.allgather(p, 64 * MB)
        assert ar.transfer == pytest.approx(rs.transfer + ag.transfer)

    def test_single_rank_free(self, fat_tree):
        assert fat_tree.allreduce([0], 100 * MB).total == 0.0


class TestAlltoall:
    def test_strong_scaling_cost_shrinks_with_ranks(self, fat_tree):
        """Eq. 2: fixed total volume, so a rank's egress ((R-1)V/R^2)
        falls as ranks grow -- the steadily-declining alltoall cost of
        Fig. 11 (the paper's "4x" refers to the per-*pair* message)."""
        v = 208 * MB
        t2 = fat_tree.alltoall(list(range(2)), v).transfer
        t4 = fat_tree.alltoall(list(range(4)), v).transfer
        t8 = fat_tree.alltoall(list(range(8)), v).transfer
        t16 = fat_tree.alltoall(list(range(16)), v).transfer
        assert t4 < t2 and t8 < t4 and t16 < t8
        assert t2 / t8 > 2.0

    def test_fat_tree_pruning_bites_across_leaves(self, fat_tree):
        v = 500 * MB
        intra = fat_tree.alltoall(list(range(32)), v).transfer  # one leaf
        across = fat_tree.alltoall(list(range(64)), v).transfer  # both leaves
        # 64 ranks halve the per-rank share but cross the 2:1 pruned root;
        # the win must be visibly less than the 2x an unpruned tree gives.
        assert across > intra / 2

    def test_upi_inefficiency_applied(self):
        plain = NetworkModel(twisted_hypercube(8), alltoall_inefficiency=1.0)
        tuned = NetworkModel(twisted_hypercube(8), alltoall_inefficiency=1.6)
        p = list(range(8))
        assert tuned.alltoall(p, 16 * MB).transfer == pytest.approx(
            1.6 * plain.alltoall(p, 16 * MB).transfer
        )

    def test_zero_volume(self, fat_tree):
        assert fat_tree.alltoall(list(range(8)), 0.0).total == 0.0


class TestScatter:
    def test_root_port_serialises(self, fat_tree):
        """The reason ScatterList loses to alltoall: one root port."""
        v = 64 * MB
        p = list(range(16))
        scat = fat_tree.scatter(0, p, v)
        a2a = fat_tree.alltoall(p, v)
        assert scat.transfer > 2 * a2a.transfer

    def test_transfer_grows_with_ranks_held_volume(self, fat_tree):
        v = 64 * MB
        t4 = fat_tree.scatter(0, list(range(4)), v).transfer
        t16 = fat_tree.scatter(0, list(range(16)), v).transfer
        # (R-1)/R of the buffer leaves the root either way.
        assert t16 == pytest.approx(t4 * (15 / 16) / (3 / 4), rel=0.05)

    def test_latency_accumulates_per_destination(self, fat_tree):
        l4 = fat_tree.scatter(0, list(range(4)), 64 * MB).latency
        l16 = fat_tree.scatter(0, list(range(16)), 64 * MB).latency
        assert l16 > l4

    def test_single_rank_free(self, fat_tree):
        assert fat_tree.scatter(0, [0], 64 * MB).total == 0.0


class TestP2P:
    def test_cross_leaf_slower_than_intra(self, fat_tree):
        intra = fat_tree.p2p(0, 1, 100 * MB)
        cross = fat_tree.p2p(0, 40, 100 * MB)
        assert cross.latency > intra.latency

    def test_ideal_switch_matches_link_rate(self):
        net = NetworkModel(single_switch(4))
        t = net.p2p(0, 1, 12.5e9)
        assert t.transfer == pytest.approx(1.0)
