"""Interconnect topologies: the structural claims of paper Figs. 3/4."""

import itertools

import pytest

from repro.hw.network import NetworkModel
from repro.hw.topology import (
    pruned_fat_tree,
    single_switch,
    socket_id,
    switch_id,
    twisted_hypercube,
)


class TestTwistedHypercube:
    def test_three_upi_links_per_socket(self):
        topo = twisted_hypercube(8)
        assert all(topo.degree(s) == 3 for s in topo.sockets)

    def test_diameter_two(self):
        # "3 neighbors can be reached in one hop and the remaining 4
        # neighbors in two hops."
        topo = twisted_hypercube(8)
        pairs = itertools.combinations(range(len(topo.sockets)), 2)
        assert max(topo.hops(a, b) for a, b in pairs) == 2

    def test_neighbor_split_3_plus_4(self):
        topo = twisted_hypercube(8)
        for s in range(8):
            hops = [topo.hops(s, d) for d in range(8) if d != s]
            assert sorted(hops) == [1, 1, 1, 2, 2, 2, 2]

    def test_twelve_unique_links(self):
        # "the machine has 12 unique UPI connections" -> 260 GB/s agg.
        topo = twisted_hypercube(8)
        assert topo.graph.number_of_edges() == 12
        agg = 2 * 12 * topo.link.bw  # bidirectional
        assert agg == pytest.approx(264e9, rel=0.05)

    def test_rejects_odd_socket_count(self):
        with pytest.raises(ValueError):
            twisted_hypercube(7)


class TestPrunedFatTree:
    def test_socket_count(self):
        topo = pruned_fat_tree(64)
        assert len(topo.sockets) == 64

    def test_two_leaves_plus_root(self):
        topo = pruned_fat_tree(64)
        switches = [n for n in topo.graph.nodes if n[0] == "switch"]
        assert len(switches) == 3

    def test_intra_leaf_is_two_hops(self):
        topo = pruned_fat_tree(64)
        assert topo.hops(0, 31) == 2  # socket -> leaf -> socket

    def test_inter_leaf_is_four_hops(self):
        topo = pruned_fat_tree(64)
        assert topo.hops(0, 32) == 4  # via the root

    def test_uplink_bandwidth_is_pruned_2_to_1(self):
        topo = pruned_fat_tree(64, pruning_ratio=2.0)
        leaf, root = switch_id("leaf0"), switch_id("root")
        # 32 endpoints at 12.5 GB/s, pruned 2:1 -> 200 GB/s uplink.
        assert topo.link_bw(leaf, root) == pytest.approx(200e9)

    def test_divisibility_validated(self):
        with pytest.raises(ValueError):
            pruned_fat_tree(50, sockets_per_leaf=32)


class TestRouting:
    def test_route_endpoints(self):
        topo = pruned_fat_tree(64)
        r = topo.route(0, 40)
        assert r.edges[0][0] == socket_id(0)
        assert r.edges[-1][1] == socket_id(40)

    def test_self_route_empty(self):
        topo = twisted_hypercube(8)
        assert topo.route(3, 3).hops == 0

    def test_route_deterministic(self):
        topo = twisted_hypercube(8)
        assert topo.route(0, 5).edges == topo.route(0, 5).edges

    def test_path_latency_accumulates(self):
        topo = pruned_fat_tree(64)
        assert topo.path_latency(0, 32) > topo.path_latency(0, 1)


def congestion_time(topo, traffic) -> float:
    """Lower-bound completion time of a traffic matrix, as the network
    model prices it: the bottleneck directed link's load over its
    bandwidth, plus the worst path latency involved."""
    return NetworkModel(topo)._traffic_cost(traffic).total


class TestCongestion:
    def test_link_loads_accumulate(self):
        topo = single_switch(4)
        loads = topo.link_loads({(0, 1): 100.0, (0, 2): 50.0})
        up = (socket_id(0), switch_id("xbar"))
        assert loads[up] == 150.0

    def test_congestion_time_uses_bottleneck(self):
        topo = single_switch(4)
        t_hot = congestion_time(topo, {(0, 1): 1e9, (0, 2): 1e9})
        t_spread = congestion_time(topo, {(0, 1): 1e9, (2, 3): 1e9})
        assert t_hot > t_spread  # shared uplink vs disjoint paths

    def test_zero_traffic(self):
        topo = single_switch(4)
        assert congestion_time(topo, {}) == 0.0
        assert congestion_time(topo, {(1, 1): 1e9}) == 0.0

    def test_ring_order_sorted(self):
        topo = pruned_fat_tree(64)
        assert topo.ring_order([5, 2, 9]) == [2, 5, 9]
