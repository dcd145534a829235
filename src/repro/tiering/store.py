"""Tiered embedding rows: one array in hot-first order on a file mapping.

A :class:`TieredEmbeddingBag` stores its table as *one* ``(rows, dim)``
FP32 array whose first ``h`` rows are the pinned-hot ids (ascending) and
whose remaining rows are every other id (ascending), plus the ``int64``
permutation ``id -> row``.  Tiering is that permutation and nothing
else: every operation is the flat :class:`~repro.core.embedding.EmbeddingBag`
kernel on the translated ids, hot or cold is ``row < h``, and the rows
a skewed id stream keeps hitting sit next to each other instead of
being spread over the whole table.  The array lives on a file mapping
under ``cold_dir`` (:func:`file_backed`), so a table -- or, inside a
model, the whole slab the tables are views of -- can exceed RAM: the OS
keeps the hot prefix resident and pages the tail in and out on demand.

Bit-identity contract (pinned by ``tests/tiering/``): for any hot set,
every operation -- gather, forward, backward, ``scatter_add_rows``
(per-lookup or bag-level deltas), ``state_dict`` -- produces bitwise the
flat table's result.  A bijection on row ids moves rows, never values, and
the kernels' stable sort keeps each row's duplicate contributions in
batch order whatever the row is called.
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import os
import tempfile
import weakref
from typing import Callable

import numpy as np

from repro.core.embedding import EmbeddingBag
from repro.core.param import checked_entry
from repro.kernels.lookup import Lookup, check_ids, fuse


def _release(path: str, own_dir: bool) -> None:
    """Unlink a slab file; a defaulted directory goes with its last file
    (``rmdir`` refuses while another file of this process lives there)."""
    with contextlib.suppress(OSError):
        os.unlink(path)
    if own_dir:
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))


def file_backed(
    shape: tuple[int, ...], dtype=np.float32, cold_dir: str | None = None
) -> np.ndarray:
    """A zeroed ``shape`` array on a fresh file under ``cold_dir``
    (default: ``<tmp>/repro-tiering-<pid>/``, removed with its last file).

    Returned as a base-class ``ndarray`` over the one ``np.memmap`` of
    the file, so the kernels see a plain array.  The mapping carries
    ``release``: called, or when the last view of the mapping is
    collected, it unlinks the file -- pages already mapped stay valid.
    Rows are read at random, so the mapping is advised ``MADV_RANDOM``:
    no read-ahead behind a gather that pages a row in, nor under the
    first fill (docs/BENCHMARKS.md has what that window cost).
    """
    own_dir = cold_dir is None
    if own_dir:
        cold_dir = os.path.join(tempfile.gettempdir(), f"repro-tiering-{os.getpid()}")
    while True:
        os.makedirs(cold_dir, exist_ok=True)
        try:
            fd, path = tempfile.mkstemp(prefix="slab-", suffix=".bin", dir=cold_dir)
            break
        except FileNotFoundError:  # a release just removed the emptied default dir
            continue
    os.close(fd)
    mapping = np.memmap(path, dtype=dtype, mode="w+", shape=tuple(shape))
    if hasattr(mmap, "MADV_RANDOM"):
        mapping._mmap.madvise(mmap.MADV_RANDOM)
    mapping.release = weakref.finalize(mapping, _release, path, own_dir)
    return mapping.view(np.ndarray)


def _mapping_of(array: np.ndarray) -> np.memmap | None:
    """The :func:`file_backed` mapping ``array`` is a view of, if any."""
    while array is not None and not isinstance(array, np.memmap):
        array = getattr(array, "base", None)
    return array


def _hot_first(rows: int, hot_rows: np.ndarray | None) -> tuple[np.ndarray, int]:
    """``(order, h)``: the storage order that puts the ``h`` distinct ids
    of ``hot_rows`` first and every other id after them, both ascending;
    ``order[row]`` is the id stored at ``row``."""
    hot = np.unique(check_ids(np.ravel([] if hot_rows is None else hot_rows), rows, "hot_rows"))
    cold = np.ones(rows, dtype=bool)
    cold[hot] = False
    return np.concatenate([hot, np.flatnonzero(cold)]), int(hot.size)


class TieredEmbeddingBag(EmbeddingBag):
    """One embedding table stored hot-first: ``store`` is a file-backed
    flat bag whose row ``r`` holds id ``order[r]``, the first ``hot`` of
    them the pinned-hot set (possibly none: a pure out-of-core table).
    :func:`apply_tiering` builds these over a model's slab rows.
    """

    storage = "fp32"
    _arrays = {}  # the rows belong to :attr:`store`

    def __init__(self, store: EmbeddingBag, order: np.ndarray, hot: int):
        self.rows, self.dim = store.rows, store.dim
        #: The flat bag over this table's rows in hot-first order: slab
        #: rows when the table belongs to a model.
        self.store = store
        self._file = _mapping_of(store.weight)
        if self._file is None:
            raise ValueError("a tiered table's rows must live on a file_backed mapping")
        #: id -> row of :attr:`store`; rows ``[0, _hot)`` are the hot set.
        self._remap = np.empty(self.rows, dtype=np.int64)
        self._remap[order] = np.arange(self.rows)
        self._hot = hot

    @property
    def weight(self) -> np.ndarray:
        # The flat table keeps ``weight`` as its storage tensor; here it
        # is the table read back in id order (tests, inspection).
        return self.dense_weight()

    @property
    def hot_rows(self) -> np.ndarray:
        """The pinned-hot row ids (sorted ascending)."""
        return np.flatnonzero(self._remap < self._hot)

    def hot_traffic_fraction(self, indices: np.ndarray) -> float:
        """Fraction of ``indices`` that name hot rows.

        The virtual-clock charging in :mod:`repro.parallel.hybrid` prices
        tiered gathers with this per-batch hit rate (one ``int64`` gather
        -- cheap next to the row copies it prices).
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return 0.0
        return float((self._remap[indices] < self._hot).mean())

    # -- the flat kernels, on translated ids -----------------------------------

    def storage_rows(self, indices: np.ndarray) -> np.ndarray:
        return np.take(self._remap, indices, mode="clip")

    def _checked_rows(self, indices, offsets=None):
        # The range check comes first: the clip-mode translation would
        # turn an id past the table into its last row.
        if offsets is None and not isinstance(indices, Lookup):
            return self.storage_rows(self._check_indices(indices))
        return fuse([(self._label, indices, offsets, self.rows, self.storage_rows)])

    def gather(self, indices: np.ndarray) -> np.ndarray:
        # Defined on this class, not inherited: the repo benchmark wraps
        # TieredEmbeddingBag.gather itself to count per-table tiered
        # gathers (none inside a slab step).
        return self.store.gather(self._checked_rows(indices))

    def _pool(self, look: Lookup) -> np.ndarray:
        return self.store._pool(self._checked_rows(look))

    def dense_weight(self) -> np.ndarray:
        return np.take(self.store.weight, self._remap, axis=0)

    def scatter_add_rows(self, indices, deltas: np.ndarray, offsets=None, scale: float = 1.0) -> None:
        self.store.scatter_add_rows(self._checked_rows(indices, offsets), deltas, scale=scale)

    # -- checkpointing ------------------------------------------------------

    def state_dict(self, copy: bool = True) -> dict:
        """The flat-layout state: one FP32 weight array in id order, so
        tiered tables round-trip through the ``.npz`` path and the process
        backend's state arenas unchanged.  ``copy=False`` defers the
        gather to the checkpoint writer: one table at a time."""
        return {"weight": self.dense_weight() if copy else self.dense_weight}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        weight = checked_entry(state, "weight", (self.rows, self.dim), np.float32)
        self.store.weight[self._remap] = weight

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Delete the file the rows are mapped from (idempotent).  The
        mapping itself stays usable until its last view is gone."""
        self._file.release()


def _tiers(plan) -> bool:
    return plan is not None and plan.mode == "hot_cold"


def apply_tiering(model, plans, cold_dir: str | None = None) -> list[int]:
    """Turn ``model``'s planned FP32 tables into tiered views, in place.

    ``plans`` maps table id -> :class:`~repro.tiering.planner.TablePlan`
    (or any object with ``mode`` and ``hot_rows``).  Only tables owned
    by ``model`` and planned ``hot_cold`` are converted: their slab rows
    are permuted hot-first and ``model.tables[t]`` becomes a
    :class:`TieredEmbeddingBag` over the same rows, so the table never
    leaves the slab and weights carry over bit-exactly.  A slab that is
    not on a file mapping yet (the model was built without
    :func:`build_tiered`) is moved onto one under ``cold_dir`` first,
    table by table, planned tables landing hot-first as they are copied.
    Split-BF16 tables are never tiered (the lo half lives with the
    optimizer; tiering is scoped to FP32 storage).  Returns the list of
    converted table ids.
    """
    orders: dict[int, tuple[np.ndarray, int]] = {}
    for t, table in model.tables.items():
        plan = plans.get(t) if hasattr(plans, "get") else plans[t]
        if not _tiers(plan):
            continue
        if table.storage != "fp32":
            raise ValueError(
                f"table {t}: tiering requires fp32 storage, got {table.storage!r}"
            )
        if isinstance(table, TieredEmbeddingBag):
            raise ValueError(f"table {t} is already tiered")
        orders[t] = _hot_first(table.rows, plan.hot_rows)
    if not orders:
        return []
    slab = model.slab
    on_file = _mapping_of(slab.weight) is not None
    target = slab.weight if on_file else file_backed(slab.weight.shape, cold_dir=cold_dir)
    start = 0
    for t, table in model.tables.items():  # slab order
        rows = target[start : start + table.rows]
        start += table.rows
        if t in orders:
            # Permuting in place reads a copy: take may not read what it writes.
            source = table.weight.copy() if on_file else table.weight
            np.take(source, orders[t][0], axis=0, out=rows, mode="clip")
        elif not on_file:
            rows[...] = table.weight
        if not on_file:
            table.weight = rows  # the view moves with its slab
    slab.weight = target
    for t, (order, hot) in orders.items():
        model.rebind_table(t, TieredEmbeddingBag(model.tables[t], order, hot))
    return sorted(orders)


def build_tiered(build: Callable, plans, cold_dir: str | None = None):
    """``build(slab_alloc)`` -> model, tiered per ``plans``.

    When ``plans`` tier any table the slab is allocated on a file
    mapping under ``cold_dir`` from the start, so no anonymous twin of
    the tables ever exists; ``plans`` must cover only tables the model
    will own.  Without such a plan ``build(None)`` is all that happens.
    """
    on_file = any(map(_tiers, plans.values()))
    model = build(functools.partial(file_backed, cold_dir=cold_dir) if on_file else None)
    apply_tiering(model, plans, cold_dir=cold_dir)
    return model
