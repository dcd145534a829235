"""The NumPy tier of the Criteo generator's two data kernels.

:mod:`repro.data` draws the uniforms and takes the inverse CDF's
``power``; the Zipf sampler's integer tail and the teacher's bag sums
are spelled here over plain arrays, and :mod:`repro.kernels.dispatch`
offers them to the C loops of ``native/kernels.c`` first, which promise
these bits (``uint64`` hash arithmetic, bag sums folded from ``+0.0`` in
input order: ``np.add.at``'s order).
"""

from __future__ import annotations

import numpy as np

#: Knuth's multiplicative constant (0x9E3779B1, an odd prime): the Zipf
#: scramble's multiplier and the teacher hash's.
KNUTH = 2654435761
#: Added to a rank before the scramble: keeps rank 0 (the Zipf head)
#: away from id 0.
SCRAMBLE_SHIFT = 12345
#: The largest item count whose scramble product ``(items - 1 + 12345)
#: * KNUTH`` fits ``int64`` (3,474,689,199): beyond it NumPy wraps and
#: the map is no longer a bijection.
MAX_SCRAMBLE_ITEMS = np.iinfo(np.int64).max // KNUTH - SCRAMBLE_SHIFT + 1


def zipf_ids(x: np.ndarray, n_items: int, scramble: bool) -> np.ndarray:
    """Ids on ``[0, n_items)`` from draws ``x`` of the continuous power
    law on ``[1, n_items]``: rank ``trunc(x) - 1`` clamped to the table,
    then (``scramble``) the affine bijection that spreads hot ranks."""
    ranks = np.minimum(x.astype(np.int64) - 1, n_items - 1).clip(0)
    if not scramble:
        return ranks
    return ((ranks + SCRAMBLE_SHIFT) * KNUTH) % n_items


def hashed_effect(ids: np.ndarray, mix: int, seed_mult: int) -> np.ndarray:
    """A deterministic pseudo-random effect in ``[-0.5, 0.5)`` per id
    under the keys ``(mix, seed_mult)`` (one pair per table and seed)."""
    h = np.asarray(ids).astype(np.uint64)
    # Unsigned array arithmetic wraps modulo 2^64 by construction.
    h += np.uint64(mix)
    h *= np.uint64(KNUTH)
    h ^= h >> np.uint64(29)
    h *= np.uint64(seed_mult)
    h ^= h >> np.uint64(32)
    return (h & np.uint64(0xFFFFFFFF)).astype(np.float64) / 2.0**32 - 0.5


def teacher_bags(ids, offsets, mix: int, seed_mult: int, weight: float, score) -> None:
    """``score[b] += weight * acc / max(len, 1)``, ``acc`` bag ``b``'s
    effects folded from ``+0.0`` in input order: position by position,
    every bag that still has one adding its next effect.  ``score``:
    ``float64``, one entry per bag, updated in place."""
    eff = hashed_effect(ids, mix, seed_mult)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != eff.shape[0] or (lengths < 0).any():
        raise ValueError("offsets must rise from 0 to the number of ids")
    bags = lengths.shape[0]
    acc = np.zeros(bags)
    if bags and (lengths == lengths[0]).all():
        # Equal bags (every generated batch): the columns of one reshape.
        for column in eff.reshape(bags, int(lengths[0])).T:
            acc += column
        score += weight * acc / max(int(lengths[0]), 1)
        return
    # Longest bags first, so "has a j-th effect" is a prefix of the order.
    by_length = np.argsort(-lengths, kind="stable")
    live = np.bincount(lengths, minlength=1)[::-1].cumsum()[::-1]
    starts = offsets[:-1][by_length]
    for j in range(1, live.shape[0]):
        acc[: live[j]] += eff[starts[: live[j]] + (j - 1)]
    score[by_length] += weight * acc / np.maximum(lengths[by_length], 1)
