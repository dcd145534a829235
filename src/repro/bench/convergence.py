"""Driver for Fig. 16: BF16 Split-SGD convergence vs FP32 vs FP24.

The paper trains the MLPerf configuration for one epoch of the Criteo
Terabyte dataset (~4B samples) and evaluates ROC AUC at every 5% of the
epoch, showing

* BF16 Split-SGD matching FP32 to < 0.001 AUC, and
* the FP24 (1-8-15, i.e. only 8 extra LSBs) variant falling measurably
  short.

At reproduction scale we train an MLPerf-*shaped* DLRM (26 tables with
capped cardinalities, same interaction and MLP structure) on the
synthetic Criteo generator, with the same 5%-grid evaluation.  The claim
being reproduced is the *relationship between the three curves*, not the
absolute 0.80 AUC of the real dataset: the synthetic generator's click
signal, not Criteo's, sets where the curves saturate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.bench import paper
from repro.core.config import MLPERF, DLRMConfig
from repro.train.callbacks import MetricLogger
from repro.train.spec import (
    DataSpec,
    ModelSpec,
    OptimizerSpec,
    PrecisionSpec,
    RunSpec,
    ScheduleSpec,
)
from repro.train.trainer import make_trainer


def scaled_mlperf(rows_cap: int = 2000, embedding_dim: int = 16) -> DLRMConfig:
    """An MLPerf-shaped config small enough to train in a benchmark."""
    return dataclasses.replace(
        MLPERF,
        name="mlperf-fig16",
        minibatch=128,
        global_minibatch=512,
        local_minibatch=128,
        embedding_dim=embedding_dim,
        table_rows=tuple(min(m, rows_cap) for m in MLPERF.table_rows),
        bottom_mlp=(64, 32, embedding_dim),
        top_mlp=(64, 32, 1),
    )


@dataclass
class ConvergenceCurves:
    """AUC-vs-epoch-fraction for the precision variants.

    ``bf16_nosplit`` (BF16 weights with *no* low half at all) is an extra
    ablation beyond the paper's three curves: it exposes, at reproduction
    scale, the lost-small-updates mechanism that makes the paper's FP24
    curve fall short at full Criteo scale.  Tables of at most 2,000 rows
    trained for ~100 batches lose too few updates below FP24's 8 extra
    bits for that gap to open, so at this scale FP24 at best ties the
    split curve.
    """

    fractions: list[float]
    fp32: list[float] = field(default_factory=list)
    bf16_split: list[float] = field(default_factory=list)
    fp24: list[float] = field(default_factory=list)
    bf16_nosplit: list[float] = field(default_factory=list)

    def final_gap_bf16(self) -> float:
        """|AUC(bf16) - AUC(fp32)| at end of epoch."""
        return abs(self.bf16_split[-1] - self.fp32[-1])

    def rows(self) -> list[dict[str, object]]:
        out = []
        for i, f in enumerate(self.fractions):
            out.append(
                {
                    "epoch_pct": round(100 * f),
                    "fp32_auc": self.fp32[i],
                    "bf16_split_auc": self.bf16_split[i],
                    "fp24_auc": self.fp24[i],
                    "bf16_nosplit_auc": self.bf16_nosplit[i],
                    "paper_fp32": paper.FIG16_FP32_AUC[
                        min(i, len(paper.FIG16_FP32_AUC) - 1)
                    ],
                    "paper_bf16": paper.FIG16_BF16_AUC[
                        min(i, len(paper.FIG16_BF16_AUC) - 1)
                    ],
                    "paper_fp24": paper.FIG16_FP24_AUC[
                        min(i, len(paper.FIG16_FP24_AUC) - 1)
                    ],
                }
            )
        return out


#: Fig. 16 variant -> RunSpec precision/optimizer sections.
_VARIANTS = {
    "fp32": ("fp32", 16, "sgd"),
    "bf16_split": ("split_bf16", 16, "split_sgd"),
    "fp24": ("split_bf16", 8, "split_sgd"),
    "bf16_nosplit": ("split_bf16", 0, "split_sgd"),
}


def _train_variant(
    variant: str,
    epoch_batches: int,
    eval_points: int,
    rows_cap: int,
    lr: float,
    seed: int,
    test_size: int,
) -> list[float]:
    """One precision variant through the Trainer: the 5%-grid AUC curve.

    The spec's ``eval_every`` fires a :class:`PeriodicEval` every
    ``epoch_batches / eval_points`` steps on the trainer's held-out
    batch (``test_size`` samples at a far-future dataset index).  All
    variants see identical data and identical initial weights (modulo
    storage format), mirroring the paper's controlled comparison.
    """
    storage, lo_bits, optimizer = _VARIANTS[variant]
    spec = RunSpec(
        name=variant,
        model=ModelSpec(
            config="mlperf",
            overrides=dataclasses.asdict(scaled_mlperf(rows_cap=rows_cap)),
            seed=seed,
        ),
        data=DataSpec(name="criteo", seed=seed),
        optimizer=OptimizerSpec(name=optimizer, lr=lr),
        precision=PrecisionSpec(storage=storage, lo_bits=lo_bits),
        schedule=ScheduleSpec(
            steps=epoch_batches,
            eval_every=epoch_batches // eval_points,
            eval_size=test_size,
        ),
    )
    logger = MetricLogger()
    make_trainer(spec, callbacks=[logger]).fit()
    return [row["auc"] for row in logger.eval_history]


def run_fig16_convergence(
    epoch_batches: int = 100,
    eval_points: int = 20,
    rows_cap: int = 2000,
    lr: float = 0.1,
    seed: int = 0,
    test_size: int = 4096,
) -> ConvergenceCurves:
    """Train the precision variants and collect their AUC curves."""
    if epoch_batches % eval_points:
        raise ValueError("epoch_batches must be divisible by eval_points")
    curves = ConvergenceCurves(
        fractions=[(k + 1) / eval_points for k in range(eval_points)]
    )
    for variant in _VARIANTS:
        setattr(
            curves,
            variant,
            _train_variant(
                variant, epoch_batches, eval_points, rows_cap, lr, seed, test_size
            ),
        )
    return curves
