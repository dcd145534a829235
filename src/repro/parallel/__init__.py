"""Multi-socket DLRM: the simulated SPMD runtime, the hybrid-parallel
model (functional numerics + timing), its analytic paper-scale twin, and
the MLP communication-overlap engine.

Contract: the SimCluster's numerics *and* virtual clocks are
bit-identical across execution backends (sequential, thread pool,
process workers) and worker counts -- cross-rank sums always reduce
through the same canonical tree, and time advances only by model-derived
amounts.  Rank phases may run concurrently, but each rank's state is
owned by exactly one task at a time; the cluster object itself is not
thread-safe for concurrent ``step`` calls.
"""
