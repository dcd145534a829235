"""What ``np.add.at`` would do: the naive formulations, written down once.

The sparse row operators promise the exact FP32 result of one of the
spellings below, on both kernel tiers.  The NumPy tier *is* these
spellings: :func:`repro.kernels.rows.scatter_add` runs
:func:`scatter_add` a bounded block of look-ups at a time (``np.add.at``
applies its adds in array order, so the blocks give the same bits), the
ragged pooled forward gathers and runs :func:`segment_sum`, and the
Split-BF16 update starts from :func:`aggregate_duplicates`.  The C loops
of :mod:`repro.kernels.native` are held to them by the tests (bit for
bit, on both kernel tiers).  Outside the kernels only the
count-min sketch of :mod:`repro.tiering.freqstats` goes through
:func:`scatter_add` (the Criteo teacher's bag sums are a data kernel of
their own, :mod:`repro.kernels.synth`).  Array-level on purpose: a
bag's oracle is its storage array through one of these
(``tests/conftest.py::scatter_add_rows_oracle``), so nothing here knows
about tables.
"""

from __future__ import annotations

import numpy as np


def segment_sum(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Alg. 1's pooling: ``np.add.at`` over repeated bag ids."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = offsets.shape[0] - 1
    out = np.zeros((n, rows.shape[1]), dtype=np.float32)
    if n and rows.shape[0]:
        np.add.at(out, np.repeat(np.arange(n), np.diff(offsets)), rows)
    return out


def aggregate_duplicates(
    indices: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(unique rows, summed values): ``np.unique`` + ``np.add.at`` on the
    inverse."""
    uniq, inverse = np.unique(np.asarray(indices, dtype=np.int64), return_inverse=True)
    agg = np.zeros((uniq.shape[0], values.shape[1]), dtype=np.float32)
    np.add.at(agg, inverse, values)
    return uniq, agg


def scatter_add(weight: np.ndarray, indices: np.ndarray, deltas: np.ndarray) -> None:
    """Alg. 3: ``weight[indices] += deltas``, one unbuffered add per
    look-up in array order."""
    np.add.at(weight, np.asarray(indices, dtype=np.int64), deltas)
