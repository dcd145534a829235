"""Dataset substrate.

The paper uses a uniform random dataset for the small/large configs and
the Criteo Terabyte click logs for the MLPerf config.  The terabyte logs
are not redistributable, so :mod:`repro.data.criteo` generates a
synthetic stand-in that preserves the two properties the experiments
depend on: the Zipf-skewed index distribution (driving the embedding
update contention of Fig. 7/8) and a learnable click signal (driving the
AUC curves of Fig. 16).

Contract: every batch is a pure function of ``(seed, batch_index)`` --
no hidden iterator state -- which is what makes prefetching at any
depth, per-process synthesis under the process backend, resume, and
crash-replay all bit-identical to synchronous single-process
synthesis.
"""
