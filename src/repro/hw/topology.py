"""Interconnect topologies of the two platforms (paper Figs. 3 and 4).

Two concrete fabrics are modelled as (multi-)graphs of sockets and switches:

* :func:`twisted_hypercube` -- the 8-socket UPI fabric.  Each Platinum
  socket offers only 3 UPI links but must talk to 7 peers, so the machine
  wires the sockets as a twisted hypercube: 3 neighbours at one hop and the
  remaining 4 at two hops (paper Fig. 3).  We realise this as the Moebius
  ladder on 8 vertices (an 8-cycle plus the 4 diagonals), which is exactly
  3-regular with diameter 2 -- the property the paper states.
* :func:`pruned_fat_tree` -- the 64-socket OPA cluster.  Every socket has
  its own 100G adapter; 32 sockets connect to each of two leaf switches,
  and each leaf connects to the root with 16 links (2:1 pruning), giving
  200 GB/s inside a leaf and 200 GB/s between the leaves (paper Fig. 4).

A :class:`Topology` wraps a ``networkx`` graph whose nodes are either
``("socket", i)`` or ``("switch", name)`` and whose edges carry ``bw``
(bytes/s per direction) and ``latency`` (seconds).  Routing is shortest
path by hop count, deterministically tie-broken, so congestion estimates
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import networkx as nx

from repro.hw.spec import LinkSpec, OPA_LINK, UPI_LINK

NodeId = Hashable


def socket_id(i: int) -> tuple[str, int]:
    return ("socket", int(i))


def switch_id(name: str) -> tuple[str, str]:
    return ("switch", name)


@dataclass(frozen=True)
class Route:
    """An ordered list of edges (as node pairs) from ``src`` to ``dst``."""

    src: NodeId
    dst: NodeId
    edges: tuple[tuple[NodeId, NodeId], ...]

    @property
    def hops(self) -> int:
        return len(self.edges)


class Topology:
    """A routed interconnect graph over sockets and switches."""

    def __init__(self, graph: nx.Graph, name: str, link: LinkSpec):
        self.graph = graph
        self.name = name
        self.link = link
        self._sockets = sorted(n for n in graph.nodes if n[0] == "socket")
        self._route_cache: dict[tuple[NodeId, NodeId], Route] = {}
        # Pre-compute deterministic shortest paths between all socket pairs.
        self._paths = dict(nx.all_pairs_shortest_path(graph))

    # -- structure ---------------------------------------------------------

    @property
    def sockets(self) -> list[NodeId]:
        """All socket endpoints, ordered by index."""
        return list(self._sockets)

    def degree(self, node: NodeId) -> int:
        return self.graph.degree[node]

    def link_bw(self, u: NodeId, v: NodeId) -> float:
        """Per-direction bandwidth of edge (u, v) in bytes/s."""
        return self.graph.edges[u, v]["bw"]

    def link_latency(self, u: NodeId, v: NodeId) -> float:
        return self.graph.edges[u, v]["latency"]

    # -- routing -----------------------------------------------------------

    def route(self, src_socket: int, dst_socket: int) -> Route:
        """Deterministic shortest-hop route between two sockets."""
        src, dst = socket_id(src_socket), socket_id(dst_socket)
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            route = Route(src, dst, ())
        else:
            path = self._paths[src][dst]
            route = Route(src, dst, tuple(zip(path[:-1], path[1:])))
        self._route_cache[key] = route
        return route

    def hops(self, src_socket: int, dst_socket: int) -> int:
        return self.route(src_socket, dst_socket).hops

    def path_latency(self, src_socket: int, dst_socket: int) -> float:
        route = self.route(src_socket, dst_socket)
        return sum(self.link_latency(u, v) for u, v in route.edges)

    # -- congestion --------------------------------------------------------

    def link_loads(self, traffic: Mapping[tuple[int, int], float]) -> dict[tuple[NodeId, NodeId], float]:
        """Accumulate per-directed-edge byte loads for a traffic matrix.

        ``traffic`` maps (src_socket, dst_socket) -> bytes.  Each flow is
        routed on its shortest path and its bytes are added to every
        directed edge on the path.
        """
        loads: dict[tuple[NodeId, NodeId], float] = {}
        for (s, d), nbytes in traffic.items():
            if s == d or nbytes <= 0:
                continue
            for u, v in self.route(s, d).edges:
                loads[(u, v)] = loads.get((u, v), 0.0) + nbytes
        return loads

    # -- ring embedding (for ring collectives) ------------------------------

    def ring_order(self, participants: Sequence[int]) -> list[int]:
        """Participants ordered so consecutive ranks are topologically close.

        We keep the natural socket order, which for both modelled fabrics
        is a sensible ring (consecutive sockets share a leaf / are cycle
        neighbours on the Moebius ladder).
        """
        return sorted(participants)


# --- concrete fabrics ---------------------------------------------------


def twisted_hypercube(sockets: int = 8, link: LinkSpec = UPI_LINK) -> Topology:
    """The 8-socket UPI fabric of the Inspur TS860M5 (paper Fig. 3).

    Realised as the Moebius ladder M8: an ``sockets``-cycle plus all
    "across" chords.  For 8 sockets this is 3-regular (matching the three
    UPI ports of a Platinum SKX) with diameter 2: three 1-hop neighbours
    and four 2-hop neighbours, exactly as the paper describes.  The system
    has 12 distinct UPI connections, i.e. an aggregate of ~260 GB/s.
    """
    if sockets < 4 or sockets % 2:
        raise ValueError("twisted hypercube needs an even socket count >= 4")
    g = nx.Graph()
    for i in range(sockets):
        g.add_node(socket_id(i))
    half = sockets // 2
    for i in range(sockets):
        g.add_edge(socket_id(i), socket_id((i + 1) % sockets), bw=link.bw, latency=link.latency)
    for i in range(half):
        g.add_edge(socket_id(i), socket_id(i + half), bw=link.bw, latency=link.latency)
    return Topology(g, name=f"twisted-hypercube-{sockets}S", link=link)


def pruned_fat_tree(
    sockets: int = 64,
    sockets_per_leaf: int = 32,
    pruning_ratio: float = 2.0,
    link: LinkSpec = OPA_LINK,
    sockets_per_node: int = 2,
    intra_node_link: LinkSpec = UPI_LINK,
) -> Topology:
    """The OPA pruned fat-tree of the 64-socket cluster (paper Fig. 4).

    Every socket owns a 100G adapter into its leaf switch.  Each leaf
    switch uplinks to the root with ``sockets_per_leaf / pruning_ratio``
    links' worth of bandwidth (16 links for the paper's 2:1 pruning),
    giving 200 GB/s within a leaf and 200 GB/s aggregate between leaves.

    The cluster's nodes are dual-socket: the two sockets of a node also
    share a direct UPI link, which shortest-path routing prefers for
    intra-node traffic -- this is why the paper's placement "occupies the
    node first before going multiple nodes".
    """
    if sockets % sockets_per_leaf:
        raise ValueError("sockets must be a multiple of sockets_per_leaf")
    if sockets_per_node > 1 and sockets % sockets_per_node:
        raise ValueError("sockets must be a multiple of sockets_per_node")
    g = nx.Graph()
    leaves = sockets // sockets_per_leaf
    uplink_bw = link.bw * sockets_per_leaf / pruning_ratio
    for leaf in range(leaves):
        sw = switch_id(f"leaf{leaf}")
        g.add_node(sw)
        for s in range(leaf * sockets_per_leaf, (leaf + 1) * sockets_per_leaf):
            g.add_edge(socket_id(s), sw, bw=link.bw, latency=link.latency / 2)
    if leaves > 1:
        root = switch_id("root")
        g.add_node(root)
        for leaf in range(leaves):
            g.add_edge(switch_id(f"leaf{leaf}"), root, bw=uplink_bw, latency=link.latency / 2)
    if sockets_per_node > 1:
        for node in range(sockets // sockets_per_node):
            base = node * sockets_per_node
            for a in range(base, base + sockets_per_node):
                for b in range(a + 1, base + sockets_per_node):
                    g.add_edge(
                        socket_id(a),
                        socket_id(b),
                        bw=intra_node_link.bw,
                        latency=intra_node_link.latency,
                    )
    return Topology(g, name=f"pruned-fat-tree-{sockets}S", link=link)
