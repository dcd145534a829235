"""The NumPy tier of the dot interaction (paper Sect. II).

A sample's V = S + 1 vectors -- the bottom MLP's output, then one pooled
row per table -- stack into ``Z[N, V, E]``.  The forward keeps the
strict lower triangle of the batched GEMM ``Z Z^T`` after the dense
vector; the backward scatters the triangle's gradient into a symmetric
``dP`` and takes ``dP Z``.  Each GEMM is one stacked ``np.matmul``,
which OpenBLAS runs as ``ssyrk`` (forward) and ``sgemm`` (backward) per
sample.  :mod:`repro.kernels.dispatch` offers the same arguments to the
FMA chains of ``native/kernels.c`` first, which promise these bits.
"""

from __future__ import annotations

import numpy as np


def pairs(v: int) -> int:
    """How many dot products ``v`` vectors make without self terms."""
    return v * (v - 1) // 2


def interact(dense: np.ndarray, embs, z: np.ndarray | None = None) -> np.ndarray:
    """``[dense | z_i . z_j for i > j]`` per sample, the pairs in
    ``np.tril_indices(V, -1)`` order.  The stacked vectors go into ``z``
    (``(N, V, E)`` FP32) when given: the state a backward reads."""
    for i, e in enumerate(embs):
        if e.shape != dense.shape:
            raise ValueError(f"embedding output {i} shape {e.shape} != dense {dense.shape}")
    z = np.stack([dense, *embs], axis=1, out=z).astype(np.float32, copy=False)
    tril = np.tril_indices(z.shape[1], k=-1)
    # Batched self-GEMM: P[N, V, V] = Z @ Z^T.
    p = np.matmul(z, z.transpose(0, 2, 1))
    return np.concatenate([dense, p[:, tril[0], tril[1]]], axis=1)


def interact_backward(z: np.ndarray, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ddense, dembs)`` from a forward's stacked vectors ``z`` and the
    gradient ``dout`` of its output: ``dembs[t]`` is table ``t``'s
    ``(N, E)`` gradient, all of them one ``(S, N, E)`` block."""
    n, v, e = z.shape
    want = (n, e + pairs(v))
    if np.shape(dout) != want:
        raise ValueError(f"expected an interaction gradient of shape {want}, got {np.shape(dout)}")
    tril = np.tril_indices(v, k=-1)
    # Scatter the triangle back into a symmetric dP: the gradient of
    # z_i . z_j w.r.t. Z flows through both (i, j) and (j, i).
    dp = np.zeros((n, v, v), dtype=np.float32)
    dp[:, tril[0], tril[1]] = dout[:, e:]
    dz = np.matmul(dp + dp.transpose(0, 2, 1), z)
    ddense = dz[:, 0, :] + dout[:, :e]
    return np.ascontiguousarray(ddense), np.ascontiguousarray(dz[:, 1:].transpose(1, 0, 2))
