"""Fig. 16: Split-SGD-BF16 convergence vs FP32 (functional training).

This is the only benchmark that runs real training end to end (the
paper's Fig. 16 is a convergence plot, not a timing plot).  Scale is
reduced: in place of one ~4B-sample Criteo Terabyte epoch, an
MLPerf-shaped DLRM (26 tables capped at 2,000 rows, E=16) trains 60
batches of 128 on the synthetic Criteo generator.  The assertions target
the curve *relationships* the paper claims, not its absolute AUCs.
"""

import numpy as np

from repro.bench import run_fig16_convergence


def test_fig16_bf16_convergence(benchmark, emit):
    curves = benchmark.pedantic(
        run_fig16_convergence,
        kwargs=dict(epoch_batches=60, eval_points=12, lr=0.15),
        rounds=1,
        iterations=1,
    )
    emit("fig16_bf16_convergence", curves.rows(), title="Fig. 16: ROC AUC vs % of epoch")

    fp32 = np.array(curves.fp32)
    bf16 = np.array(curves.bf16_split)
    fp24 = np.array(curves.fp24)

    # The headline: Split-SGD-BF16 tracks FP32 (paper: within 0.001 AUC
    # at state of the art; we allow 0.005 at reproduction scale).
    assert np.all(np.abs(bf16 - fp32) < 0.005)
    assert curves.final_gap_bf16() < 0.003

    # Learning actually happens and saturates upward.
    assert fp32[-1] > fp32[0] + 0.05
    assert bf16[-1] > bf16[0] + 0.05
    # Monotone-ish rise: allow small dips, demand overall slope.
    assert np.mean(np.diff(fp32) > -0.005) > 0.9

    # FP24 does not beat the full split (paper: it falls short; at
    # reduced scale too few updates fall below FP24's extra bits for the
    # gap to open, so it at best ties).
    assert fp24[-1] <= bf16[-1] + 0.004
