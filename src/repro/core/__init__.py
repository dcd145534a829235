"""The paper's primary contribution: optimized DLRM training operators.

Public surface: model configurations (Table I/II), the DLRM model and its
operators (EmbeddingBag, MLP, interactions, BCE loss), the sparse-update
strategies of Sect. III-A, the optimizers incl. Split-SGD-BF16
(Sect. VII), bit-accurate BF16 emulation, and evaluation metrics.
"""

from repro.core.batch import Batch
from repro.core.bf16 import (
    bf16_dot,
    bf16_to_fp32,
    combine_fp32,
    fp32_to_bf16_rne,
    quantize_bf16,
    split_fp32,
    truncate_lo_bits,
)
from repro.core.config import (
    CONFIGS,
    CRITEO_TB_CARDINALITIES,
    DLRMConfig,
    LARGE,
    MLPERF,
    SMALL,
    get_config,
    table_one,
    table_two,
)
from repro.core.embedding import EmbeddingBag, SparseGrad, SplitEmbeddingBag
from repro.core.interaction import CatInteraction, DotInteraction, make_interaction
from repro.core.loss import BCEWithLogitsLoss
from repro.core.metrics import accuracy, log_loss, roc_auc
from repro.core.mlp import MLP, FullyConnected, relu, sigmoid
from repro.core.model import DLRM
from repro.core.optim import SGD, MasterWeightSGD, SparseAdagrad, SplitSGD
from repro.core.schedule import WarmupDecaySchedule
from repro.core.param import DenseSlab, Parameter
from repro.core.update import (
    AtomicXchgUpdate,
    FusedBackwardUpdate,
    RTMUpdate,
    RaceFreeUpdate,
    ReferenceUpdate,
    UpdateStrategy,
    make_strategy,
)

__all__ = [
    "Batch",
    "bf16_dot",
    "bf16_to_fp32",
    "combine_fp32",
    "fp32_to_bf16_rne",
    "quantize_bf16",
    "split_fp32",
    "truncate_lo_bits",
    "CONFIGS",
    "CRITEO_TB_CARDINALITIES",
    "DLRMConfig",
    "LARGE",
    "MLPERF",
    "SMALL",
    "get_config",
    "table_one",
    "table_two",
    "EmbeddingBag",
    "SparseGrad",
    "SplitEmbeddingBag",
    "CatInteraction",
    "DotInteraction",
    "make_interaction",
    "BCEWithLogitsLoss",
    "accuracy",
    "log_loss",
    "roc_auc",
    "MLP",
    "FullyConnected",
    "relu",
    "sigmoid",
    "DLRM",
    "SGD",
    "MasterWeightSGD",
    "SparseAdagrad",
    "SplitSGD",
    "WarmupDecaySchedule",
    "DenseSlab",
    "Parameter",
    "AtomicXchgUpdate",
    "FusedBackwardUpdate",
    "RTMUpdate",
    "RaceFreeUpdate",
    "ReferenceUpdate",
    "UpdateStrategy",
    "make_strategy",
]
