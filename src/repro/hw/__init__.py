"""Hardware substrate: machine specs, interconnect topologies and cost models.

This package replaces the paper's physical testbeds (the 8-socket Intel Xeon
SKX 8180 node with a UPI twisted hypercube, and the 64-socket CLX 8280
cluster on an Intel OPA pruned fat-tree) with an analytic model.  Every
timing the benchmarks report is derived from first-order machine balance
(flops / peak, bytes / bandwidth, alpha-beta link costs) plus a small set of
documented calibration constants anchored to numbers printed in the paper.
"""
