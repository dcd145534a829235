"""The Criteo generator's batches, digested.

Run as a script (``PYTHONPATH=<src>:<repo> python tests/data/batch_bits.py``)
it prints one JSON object.  For every cell of :func:`cells` -- the
benchmark's ``train_emb``, ``train_dist4`` and ``serve_infer`` workload
files and the full ``mlperf`` config, data seeds 0 and 1, Zipf alphas
0.5, 1.05 and 2.0 -- ``batches`` is the sha256 of the dense features,
ids, offsets and labels of batches :data:`BATCH_INDICES` at the cell's
batch size, and ``logits`` the sha256 of the teacher's logits on them.
The ids, offsets and dense features are exact; a label compares a
uniform draw with the teacher's probability, so only a logit on a
rounding boundary could move it.  The logits themselves go through a
BLAS ``dgemv`` and ``np.exp``, so they are compared only on the host in
``host``.

``tests/data/data/parent_7e426b8_batches.json`` is this output with
commit 7e426b8's ``src/`` on the path, the last commit whose generator
spelled the Zipf tail and the teacher's bag sums in NumPy alone (the
sums through ``np.add.at``); ``test_batch_bits.py`` holds both kernel
tiers to it.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.config import get_config
from repro.data.criteo import SyntheticCriteoDataset
from repro.train import RunSpec

REPO = Path(__file__).resolve().parents[2]
WORKLOADS = ("train_emb", "train_dist4", "serve_infer")
SEEDS = (0, 1)
ALPHAS = (0.5, 1.05, 2.0)
BATCH_INDICES = (0, 1, 17)


def cells() -> list[tuple[str, int, float]]:
    return [(w, s, a) for w in (*WORKLOADS, "mlperf") for s in SEEDS for a in ALPHAS]


@functools.lru_cache(maxsize=None)
def shape(workload: str):
    """(config, batch size) of a workload file, or of the full config."""
    if workload == "mlperf":
        cfg = get_config("mlperf")
        return cfg, cfg.minibatch
    path = REPO / "benchmarks" / "suite" / "workloads" / f"{workload}.json"
    spec = RunSpec.from_dict(json.loads(path.read_text()))
    cfg = spec.build_config()
    return cfg, spec.train_batch_size(cfg)


def _update(h, a: np.ndarray) -> None:
    a = np.ascontiguousarray(a)
    for part in (str(a.dtype).encode(), str(a.shape).encode(), a.tobytes()):
        h.update(part)


def digest(workload: str, seed: int, alpha: float) -> dict[str, str]:
    cfg, n = shape(workload)
    ds = SyntheticCriteoDataset(cfg, seed=seed, alpha=alpha)
    batches, logits = hashlib.sha256(), hashlib.sha256()
    for i in BATCH_INDICES:
        b = ds.batch(n, i)
        for a in (b.dense, *b.indices, *b.offsets, b.labels):
            _update(batches, a)
        _update(logits, ds.teacher_logits(b.dense, b.indices, b.offsets))
    return {"batches": batches.hexdigest(), "logits": logits.hexdigest()}


def name(workload: str, seed: int, alpha: float) -> str:
    return f"{workload}/seed={seed}/alpha={alpha}"


if __name__ == "__main__":
    from tests.conftest import host_fingerprint

    out = {"host": host_fingerprint(), "cells": {name(*c): digest(*c) for c in cells()}}
    print(json.dumps(out, indent=1, sort_keys=True))
