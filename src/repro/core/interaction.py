"""Feature interaction operators (paper Sect. II).

The interaction combines the Bottom MLP output with the S embedding-bag
outputs -- S+1 vectors of length E per sample:

* :class:`CatInteraction` -- plain concatenation (the "simple" option).
* :class:`DotInteraction` -- the common self-dot-product: a batched
  ``Z @ Z^T`` per sample, keeping the strictly-lower triangle (pairwise
  dot products without self terms), concatenated after the dense vector.
  This is the batched-GEMM key kernel the paper calls out, and the reason
  the interaction is the point where model-parallel embeddings must be
  realigned with the data-parallel minibatch (the alltoall).
"""

from __future__ import annotations

import numpy as np


class CatInteraction:
    """Concatenate [dense, emb_1, ..., emb_S] along features."""

    def __init__(self, num_embeddings: int, dim: int):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.out_features = (num_embeddings + 1) * dim

    def forward(self, dense: np.ndarray, embs: list[np.ndarray]) -> np.ndarray:
        if len(embs) != self.num_embeddings:
            raise ValueError(f"expected {self.num_embeddings} embedding outputs, got {len(embs)}")
        return np.concatenate([dense, *embs], axis=1)

    #: Forward without backward state: there is none to keep.
    infer = forward

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        d = self.dim
        ddense = dout[:, :d]
        dembs = [
            dout[:, d * (i + 1) : d * (i + 2)] for i in range(self.num_embeddings)
        ]
        return np.ascontiguousarray(ddense), [np.ascontiguousarray(g) for g in dembs]


class DotInteraction:
    """Pairwise dot-product interaction (batched GEMM), DLRM default.

    Output per sample: ``[dense (E floats), z_i . z_j for i > j]`` over
    the V = S+1 stacked vectors -- ``E + V(V-1)/2`` features.
    """

    def __init__(self, num_embeddings: int, dim: int):
        self.num_embeddings = num_embeddings
        self.dim = dim
        v = num_embeddings + 1
        self.num_vectors = v
        self._tril = np.tril_indices(v, k=-1)
        self.out_features = dim + v * (v - 1) // 2
        self._z: np.ndarray | None = None

    def _interact(
        self, dense: np.ndarray, embs: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The output and the stacked vectors ``Z[N, V, E]`` it came from."""
        if len(embs) != self.num_embeddings:
            raise ValueError(f"expected {self.num_embeddings} embedding outputs, got {len(embs)}")
        for i, e in enumerate(embs):
            if e.shape != dense.shape:
                raise ValueError(
                    f"embedding output {i} shape {e.shape} != dense {dense.shape}"
                )
        z = np.stack([dense, *embs], axis=1).astype(np.float32, copy=False)
        # Batched self-GEMM: P[N, V, V] = Z @ Z^T.
        p = np.matmul(z, z.transpose(0, 2, 1))
        flat = p[:, self._tril[0], self._tril[1]]
        return np.concatenate([dense, flat], axis=1), z

    def forward(self, dense: np.ndarray, embs: list[np.ndarray]) -> np.ndarray:
        out, self._z = self._interact(dense, embs)
        return out

    def infer(self, dense: np.ndarray, embs: list[np.ndarray]) -> np.ndarray:
        """Forward-only interaction: leaves the saved ``Z`` (and hence
        any pending backward) untouched."""
        return self._interact(dense, embs)[0]

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        if self._z is None:
            raise RuntimeError("backward called before forward")
        z = self._z
        n, v, e = z.shape
        ddense_direct = dout[:, :e]
        dflat = dout[:, e:]
        # Scatter the triangle back into a symmetric dP: the gradient of
        # z_i . z_j w.r.t. Z flows through both (i, j) and (j, i).
        dp = np.zeros((n, v, v), dtype=np.float32)
        dp[:, self._tril[0], self._tril[1]] = dflat
        dz = np.matmul(dp + dp.transpose(0, 2, 1), z)
        ddense = dz[:, 0, :] + ddense_direct
        dembs = [np.ascontiguousarray(dz[:, i + 1, :]) for i in range(v - 1)]
        return np.ascontiguousarray(ddense), dembs


def make_interaction(kind: str, num_embeddings: int, dim: int):
    """Factory matching :attr:`DLRMConfig.interaction`."""
    if kind == "dot":
        return DotInteraction(num_embeddings, dim)
    if kind == "cat":
        return CatInteraction(num_embeddings, dim)
    raise ValueError(f"unknown interaction {kind!r}")
