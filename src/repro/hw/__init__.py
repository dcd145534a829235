"""Hardware substrate: machine specs, interconnect topologies and cost models.

This package replaces the paper's physical testbeds (the 8-socket Intel Xeon
SKX 8180 node with a UPI twisted hypercube, and the 64-socket CLX 8280
cluster on an Intel OPA pruned fat-tree) with an analytic model.  Every
timing the benchmarks report is derived from first-order machine balance
(flops / peak, bytes / bandwidth, alpha-beta link costs) plus a small set of
documented calibration constants anchored to numbers printed in the paper.
"""

from repro.hw.spec import (
    SocketSpec,
    LinkSpec,
    SKX_8180,
    CLX_8280,
    UPI_LINK,
    OPA_LINK,
)
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.topology import (
    Topology,
    twisted_hypercube,
    pruned_fat_tree,
)
from repro.hw.network import NetworkModel, CollectiveCost
from repro.hw.cache import IndexStats, ContentionModel, index_stats, merge_stats
from repro.hw.costmodel import CostModel, GemmShape

__all__ = [
    "SocketSpec",
    "LinkSpec",
    "SKX_8180",
    "CLX_8280",
    "UPI_LINK",
    "OPA_LINK",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "Topology",
    "twisted_hypercube",
    "pruned_fat_tree",
    "NetworkModel",
    "CollectiveCost",
    "IndexStats",
    "ContentionModel",
    "index_stats",
    "merge_stats",
    "CostModel",
    "GemmShape",
]
