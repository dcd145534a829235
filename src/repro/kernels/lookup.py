"""Look-ups checked once: the one checker of raw ids and offsets.

A bag's look-ups are ids ``I[NS]`` cut into bags by offsets ``O[N+1]``.
:func:`fuse` checks them -- integer ids in ``[0, rows)``, in one pass;
offsets rising from 0 to ``NS`` -- into a :class:`Lookup`, which the
pooled forward, the fused update and the native entries take without a
rescan.  A wrong array raises :class:`BadLookup`; nothing is truncated.
"""

from __future__ import annotations

import numpy as np


class BadLookup(IndexError, ValueError):
    """A look-up no table can take.  ``position`` is the first bad
    entry, None when the whole array is."""

    def __init__(self, table: str, field: str, position: int | None, problem: str):
        self.table, self.field, self.position = table, field, position
        where = field if position is None else f"{field}[{position}]"
        super().__init__(f"{table}: {where} {problem}")


class Lookup:
    """Checked look-ups: ``ids`` (``int64``, each below ``bound``),
    ``offsets`` (from 0 up to ``len(ids)``) and bag ``lengths``, in
    read-only arrays of its own; ``len()`` counts the look-ups.  Only
    :func:`fuse` builds one."""

    __slots__ = ("ids", "offsets", "lengths", "bound")

    def __init__(self, *args):
        raise TypeError("a Lookup comes from repro.kernels.lookup.fuse")

    def __setattr__(self, name, value):
        raise AttributeError("a Lookup is read-only")

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def bags(self) -> int:
        return self.lengths.shape[0]


def _integers(values, table: str, field: str) -> np.ndarray:
    a = np.asarray(values)
    if a.dtype.kind not in "iu" and a.size:  # np.asarray([]) is float64: nothing to truncate
        raise BadLookup(table, field, 0, f"is {a.dtype}: {field} must be integers")
    if a.ndim != 1:
        raise BadLookup(table, field, None, f"must be a flat 1-D vector, got shape {a.shape}")
    return np.ascontiguousarray(a, dtype=np.int64)


def check_ids(indices, rows: int, table: str = "table") -> np.ndarray:
    """``indices`` as ``int64``, each in ``[0, rows)``: one unsigned max
    (a negative id reads as one past ``2**63``)."""
    ids = _integers(indices, table, "indices")
    if ids.size and ids.view(np.uint64).max() >= rows:
        at = int(np.argmax(ids.view(np.uint64) >= np.uint64(rows)))
        raise BadLookup(table, "indices", at, f"= {ids[at]} is out of range for {rows} rows")
    return ids


def check_offsets(offsets, nnz: int, table: str = "table") -> np.ndarray:
    """``int64`` offsets that never decrease and span ``[0, nnz]``."""
    off = _integers(offsets, table, "offsets")
    if not off.size:
        raise BadLookup(table, "offsets", None, "must hold N+1 entries, got none")
    if off[0] != 0:
        raise BadLookup(table, "offsets", 0, f"= {off[0]}: offsets must span [0, {nnz}]")
    drops = off[1:] < off[:-1]
    if drops.any():
        at = int(np.argmax(drops)) + 1
        raise BadLookup(table, "offsets", at, f"= {off[at]}: offsets must be non-decreasing")
    if off[-1] != nnz:
        raise BadLookup(table, "offsets", off.size - 1, f"= {off[-1]}: offsets must span [0, {nnz}]")
    return off


def _checked(indices, offsets, rows: int, table: str) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(indices, Lookup):
        if offsets is not None:
            raise TypeError("a Lookup brings its own offsets")
        if indices.bound <= rows:  # checked under this bound already
            return indices.ids, indices.offsets
        indices, offsets = indices.ids, indices.offsets
    ids = check_ids(indices, rows, table)
    return ids, check_offsets(offsets, ids.shape[0], table)


def fuse(parts) -> Lookup:
    """Several bags' look-ups as one into their rows back to back.  Part
    ``(table, indices, offsets, rows, to_rows)`` is checked against its
    own ``rows`` (unless a :class:`Lookup` under that bound), mapped by
    ``to_rows`` (None: the identity; else trusted to keep ``[0, rows)``)
    and shifted past the parts before it, into arrays the result owns."""
    parts = [(*_checked(idx, off, rows, table), rows, to_rows) for table, idx, off, rows, to_rows in parts]
    ids = np.empty(sum(p[0].shape[0] for p in parts), dtype=np.int64)
    offsets = np.empty(sum(p[1].shape[0] - 1 for p in parts) + 1, dtype=np.int64)
    at = bag = start = 0
    for idx, off, rows, to_rows in parts:
        np.add(idx if to_rows is None else to_rows(idx), start, out=ids[at : at + idx.shape[0]])
        np.add(off[:-1], at, out=offsets[bag : bag + off.shape[0] - 1])
        at, bag, start = at + idx.shape[0], bag + off.shape[0] - 1, start + rows
    offsets[-1] = at
    look = object.__new__(Lookup)
    for name, value in zip(Lookup.__slots__, (ids, offsets, np.diff(offsets), start)):
        object.__setattr__(look, name, value)
    for a in (ids, offsets, look.lengths):
        a.flags.writeable = False
    return look


def check_lookup(indices, offsets, rows: int, table: str = "table") -> Lookup:
    """One bag's look-ups for ``rows`` rows: ``indices`` itself if it is
    a Lookup under that bound, else checked (a larger bound included)."""
    if isinstance(indices, Lookup) and offsets is None and indices.bound <= rows:
        return indices
    return fuse([(table, indices, offsets, rows, None)])


def arrays(indices, offsets=None) -> tuple:
    """``(ids, offsets)`` a kernel reads: a Lookup's own, or as given."""
    return (indices.ids, indices.offsets) if isinstance(indices, Lookup) else (indices, offsets)
