"""The MLP engines' outputs and gradients, digested.

Run as a script (``PYTHONPATH=<src>:<repo> python tests/core/engine_bits.py``)
it prints one JSON object.  For every engine of :data:`ENGINES` and every
layer shape of :func:`shapes` -- the eight layers of the benchmark's
``train_mlp`` workload at its batch of 512, plus one odd small shape on
which OpenBLAS's small-matrix ``sgemm`` rounds a transposed left operand
differently from its C-contiguous copy (so the digest sees which of the
two BWD_W multiplies) -- it builds one :class:`~repro.core.mlp.FullyConnected` and hashes, in
order:

* ``forward(x)``, ``infer(x)`` and ``infer(x, out=buffer)``;
* ``backward(dy)`` with no gradient pending: ``dX``, ``dW`` and ``db``
  (the first ``dW`` of a step lands in fresh gradient storage);
* a second ``forward`` and ``backward(dy2)`` on top of it: ``dX``, and
  the accumulated ``dW`` and ``db``.

Every product goes through a BLAS ``sgemm``, whose rounding depends on
the kernel set the BLAS picks, so the digests hold only on the host in
``host``.  ``tests/core/data/parent_3e2ec41_engines.json`` is this
output with commit 3e2ec41's ``src/`` on the path, the last commit with
a per-engine branch in each pass; ``test_engine_bits.py`` holds both
engines to it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core.mlp import FullyConnected

ENGINES = ("reference", "bf16")
#: ``train_mlp``'s batch and its bottom (13 -> 512 -> 256 -> 128) and
#: top (138 -> 1024 -> 1024 -> 512 -> 256 -> 1) MLPs; the logits layer
#: has no activation.
TRAIN_MLP_BATCH = 512
TRAIN_MLP_LAYERS = (
    (13, 512, "relu"), (512, 256, "relu"), (256, 128, "relu"),
    (138, 1024, "relu"), (1024, 1024, "relu"), (1024, 512, "relu"),
    (512, 256, "relu"), (256, 1, None),
)


def shapes() -> list[tuple[int, int, int, str | None]]:
    """``(N, C, K, activation)`` of every digested layer."""
    return [(TRAIN_MLP_BATCH, c, k, act) for c, k, act in TRAIN_MLP_LAYERS] + [
        (33, 5, 100, "sigmoid")
    ]


def name(engine: str, n: int, c: int, k: int, activation: str | None) -> str:
    return f"{engine}/N={n}/C={c}/K={k}/{activation}"


def _update(h, a: np.ndarray) -> None:
    a = np.ascontiguousarray(a)
    for part in (str(a.dtype).encode(), str(a.shape).encode(), a.tobytes()):
        h.update(part)


def digest(engine: str, n: int, c: int, k: int, activation: str | None) -> dict[str, str]:
    g = np.random.default_rng([n, c, k])
    fc = FullyConnected(c, k, rng=g, activation=activation, engine=engine)
    x, dy, dy2 = (g.standard_normal(s).astype(np.float32) for s in ((n, c), (n, k), (n, k)))
    forward, fresh, accumulated = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for a in (fc.forward(x), fc.infer(x), fc.infer(x, out=np.empty((n, k), np.float32))):
        _update(forward, a)
    for h, d in ((fresh, dy), (accumulated, dy2)):
        fc.forward(x)
        _update(h, fc.backward(d))
        _update(h, fc.weight.grad)
        _update(h, fc.bias.grad)
    return {
        "forward": forward.hexdigest(),
        "fresh": fresh.hexdigest(),
        "accumulated": accumulated.hexdigest(),
    }


def cells() -> list[tuple]:
    return [(e, *s) for e in ENGINES for s in shapes()]


if __name__ == "__main__":
    from tests.conftest import host_fingerprint

    out = {"host": host_fingerprint(), "cells": {name(*c): digest(*c) for c in cells()}}
    print(json.dumps(out, indent=1, sort_keys=True))
