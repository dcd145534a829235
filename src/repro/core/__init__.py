"""The paper's primary contribution: optimized DLRM training operators.

Public surface: model configurations (Table I/II), the DLRM model and its
operators (EmbeddingBag, MLP, interactions, BCE loss), the sparse-update
strategies of Sect. III-A, the optimizers incl. Split-SGD-BF16
(Sect. VII), bit-accurate BF16 emulation, and evaluation metrics.
"""
