"""Feature interaction operators (paper Sect. II).

The interaction combines the Bottom MLP output with the S embedding-bag
outputs -- S+1 vectors of length E per sample:

* :class:`CatInteraction` -- plain concatenation (the "simple" option).
* :class:`DotInteraction` -- the common self-dot-product: a batched
  ``Z @ Z^T`` per sample, keeping the strictly-lower triangle (pairwise
  dot products without self terms), concatenated after the dense vector.
  This is the batched-GEMM key kernel the paper calls out, and the reason
  the interaction is the point where model-parallel embeddings must be
  realigned with the data-parallel minibatch (the alltoall).  Its
  arithmetic is :mod:`repro.kernels.dispatch`'s: one C pass each way, or
  the NumPy tier's stacked ``np.matmul``, with the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import dispatch
from repro.kernels.interaction import pairs
from repro.kernels.workspace import Workspace


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
        if np.ndim(dout) != 2 or np.shape(dout)[1] != self.out_features:
            raise ValueError(
                f"expected an interaction gradient of shape (N, {self.out_features}), "
                f"got {np.shape(dout)}"
            )
        d = self.dim
        ddense = dout[:, :d]
        dembs = [
            dout[:, d * (i + 1) : d * (i + 2)] for i in range(self.num_embeddings)
        ]
        return np.ascontiguousarray(ddense), [np.ascontiguousarray(g) for g in dembs]


class DotInteraction:
    """Pairwise dot-product interaction (batched GEMM), DLRM default.

    Output per sample: ``[dense (E floats), z_i . z_j for i > j]`` over
    the V = S+1 stacked vectors -- ``E + V(V-1)/2`` features.  The one
    piece of state is the stacked ``Z`` of the last training forward, in
    a buffer of the interaction's own: the backward never reads the
    caller's arrays, which may be reused buffers or transport views.
    """

    def __init__(self, num_embeddings: int, dim: int):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.num_vectors = num_embeddings + 1
        self.out_features = dim + pairs(self.num_vectors)
        self._ws = Workspace()
        self._z: np.ndarray | None = None

    def _check(self, embs: list[np.ndarray]) -> None:
        if len(embs) != self.num_embeddings:
            raise ValueError(f"expected {self.num_embeddings} embedding outputs, got {len(embs)}")

    def forward(self, dense: np.ndarray, embs: list[np.ndarray]) -> np.ndarray:
        self._check(embs)
        self._z = None  # a forward that raises leaves no backward to run
        z = self._ws.take("z", (len(dense), self.num_vectors, self.dim))
        out = dispatch.dot_interaction(dense, embs, z)
        self._z = z
        return out

    def infer(self, dense: np.ndarray, embs: list[np.ndarray]) -> np.ndarray:
        """Forward-only interaction: leaves the saved ``Z`` (and hence
        any pending backward) untouched."""
        self._check(embs)
        return dispatch.dot_interaction(dense, embs)

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ddense, dembs)``: the gradient of the bottom MLP's output
        and every table's in one ``(S, N, E)`` block, ``dembs[t]`` table
        ``t``'s."""
        if self._z is None:
            raise RuntimeError("backward called before forward")
        want = (self._z.shape[0], self.out_features)
        if np.shape(dout) != want:
            raise ValueError(f"expected an interaction gradient of shape {want}, got {np.shape(dout)}")
        return dispatch.dot_interaction_backward(self._z, dout)


def make_interaction(kind: str, num_embeddings: int, dim: int):
    """Factory matching :attr:`DLRMConfig.interaction`."""
    if kind == "dot":
        return DotInteraction(num_embeddings, dim)
    if kind == "cat":
        return CatInteraction(num_embeddings, dim)
    raise ValueError(f"unknown interaction {kind!r}")
