"""Two-tier embedding row store: shared-memory hot arena + mmap cold file.

:class:`TieredEmbeddingBag` keeps a pinned set of hot rows in a
``multiprocessing.shared_memory`` arena (the same
:class:`~repro.exec.mp.ShmArena` recipe the process backend mirrors
state through) and the full table in an mmap-backed cold file.  The
arena is authoritative for hot rows; the cold file is authoritative for
everything else, which lets tables whose total bytes exceed the arena
budget train and serve out-of-core -- the OS pages cold rows in and out
on demand.

Bit-identity contract (pinned by ``tests/tiering/test_store.py``): for
a *fixed* hot set, every operation -- gather, forward, backward,
``scatter_add_rows``, ``apply_bag_updates``, ``state_dict`` -- produces
bitwise the flat :class:`~repro.core.embedding.EmbeddingBag` result.
Gathered values are exact copies wherever the row lives, and the
scatter kernels fold each row's duplicate contributions in original
occurrence order: splitting an index vector by the hot mask keeps every
row's occurrences together and in order, so the per-row folds are the
flat kernel's folds.  Promotion/demotion (:meth:`retier`) moves rows
between tiers bit-exactly and is only ever invoked at epoch boundaries.
"""

from __future__ import annotations

import os
import tempfile
import weakref

import numpy as np

from repro.core.embedding import EmbeddingBag
from repro.exec.mp import ShmArena, shm_name
from repro.kernels.segment import scatter_add_bags, scatter_add_exact, segment_sum_ragged
from repro.obs.tracer import trace


def _cold_dir(cold_dir: str | None) -> str:
    """Resolve (and create) the directory holding cold-tier files."""
    if cold_dir is None:
        cold_dir = os.path.join(tempfile.gettempdir(), f"repro-tiering-{os.getpid()}")
    os.makedirs(cold_dir, exist_ok=True)
    return cold_dir


def _cleanup(arena: ShmArena | None, mmap_path: str) -> None:
    if arena is not None:
        arena.close()
        arena.unlink()
    try:
        os.unlink(mmap_path)
    except OSError:
        pass


class TieredEmbeddingBag(EmbeddingBag):
    """One embedding table split into a hot arena and a cold mmap file.

    ``hot_rows`` is the sorted pinned-hot row-id set (possibly empty:
    a pure out-of-core table).  ``share_hot=True`` places the hot tier
    in a named shared-memory arena; ``False`` keeps it in private
    memory (serving replicas that never fork).
    """

    storage = "fp32"
    _arrays = ()  # two tiers, no row-sliceable array

    def __init__(
        self,
        rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        weight: np.ndarray | None = None,
        hot_rows: np.ndarray | None = None,
        cold_dir: str | None = None,
        share_hot: bool = True,
        name_hint: str = "t",
    ):
        self._hot_rows = (
            np.empty(0, dtype=np.int64)
            if hot_rows is None
            else np.unique(np.asarray(hot_rows, dtype=np.int64))
        )
        if self._hot_rows.size and (
            self._hot_rows[0] < 0 or self._hot_rows[-1] >= rows
        ):
            raise ValueError("hot_rows out of range")
        self._cold_base = _cold_dir(cold_dir)
        self._share_hot = share_hot
        self._name_hint = name_hint
        super().__init__(rows, dim, rng=rng, weight=weight)

    # -- storage layer ------------------------------------------------------

    def _init_storage(self, w: np.ndarray) -> None:
        rows, dim = w.shape
        # Cold tier: the full table in an mmap-backed file.  Rows in the
        # hot set go stale here the moment training starts; state
        # assembly overlays the arena on top (see dense_weight).
        fd, self._cold_path = tempfile.mkstemp(
            prefix=f"cold-{self._name_hint}-", suffix=".bin", dir=self._cold_base
        )
        os.close(fd)
        self._cold = np.memmap(
            self._cold_path, dtype=np.float32, mode="w+", shape=(rows, dim)
        )
        self._cold[...] = w
        # Hot tier: the pinned rows, shared-memory arena or private.
        h = int(self._hot_rows.size)
        if self._share_hot:
            layout = ShmArena.layout_for(
                {"hot": np.empty((max(1, h), dim), dtype=np.float32)}
            )
            self._arena = ShmArena.create(shm_name(self._name_hint), layout)
            self._hot = self._arena.view("hot")[:h]
        else:
            self._arena = None
            self._hot = np.empty((h, dim), dtype=np.float32)
        if h:
            self._hot[...] = w[self._hot_rows]
        self._rebuild_slot_map()
        self._finalizer = weakref.finalize(
            self, _cleanup, self._arena, self._cold_path
        )

    def _rebuild_slot_map(self) -> None:
        #: is_hot mask + hot-slot translation, both indexed by row id.
        self._is_hot = np.zeros(self.rows, dtype=bool)
        self._slot = np.zeros(self.rows, dtype=np.int64)
        if self._hot_rows.size:
            self._is_hot[self._hot_rows] = True
            self._slot[self._hot_rows] = np.arange(self._hot_rows.size)

    @property
    def weight(self) -> np.ndarray:
        # The flat table keeps ``weight`` as the storage tensor; tiered
        # storage has no single authoritative array, so anything asking
        # for one gets the assembled copy (tests, inspection).
        return self.dense_weight()

    @weight.setter
    def weight(self, value: np.ndarray) -> None:  # pragma: no cover - guard
        raise AttributeError(
            "TieredEmbeddingBag has no flat weight tensor; use "
            "load_state_dict or scatter_add_rows"
        )

    @property
    def hot_rows(self) -> np.ndarray:
        """The pinned-hot row ids (sorted ascending)."""
        return self._hot_rows

    @property
    def hot_bytes(self) -> int:
        return int(self._hot_rows.size) * self.dim * 4

    @property
    def cold_path(self) -> str:
        """Path of the mmap-backed cold file (deleted on :meth:`close`)."""
        return self._cold_path

    def hot_traffic_fraction(self, indices: np.ndarray) -> float:
        """Fraction of ``indices`` served by the hot arena.

        The virtual-clock charging in :mod:`repro.parallel.hybrid` prices
        tiered gathers with this per-batch hit rate (one bool gather --
        cheap next to the row copies it prices).
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return 0.0
        return float(self._is_hot[indices].mean())

    def cold_bytes(self) -> int:
        return self.rows * self.dim * 4

    # -- tier maintenance ---------------------------------------------------

    def retier(self, hot_rows: np.ndarray) -> None:
        """Re-pin the hot set (epoch boundaries only).

        Flushes the current hot rows back to the cold file, then loads
        the new set -- every row's bits are preserved, so a retier
        between steps never changes a subsequent step's results beyond
        where rows are read from.
        """
        self.flush_hot()
        new = np.unique(np.asarray(hot_rows, dtype=np.int64))
        if new.size and (new[0] < 0 or new[-1] >= self.rows):
            raise ValueError("hot_rows out of range")
        h = int(new.size)
        if self._arena is not None:
            cap = self._arena.view("hot").shape[0]
            if h > cap:
                raise ValueError(
                    f"new hot set of {h} rows exceeds the arena capacity "
                    f"of {cap} rows; retier within the planned budget"
                )
            self._hot = self._arena.view("hot")[:h]
        else:
            self._hot = np.empty((h, self.dim), dtype=np.float32)
        self._hot_rows = new
        if h:
            self._hot[...] = self._cold[new]
        self._rebuild_slot_map()

    def flush_hot(self) -> None:
        """Write the authoritative hot rows back into the cold file."""
        if self._hot_rows.size:
            self._cold[self._hot_rows] = self._hot

    # -- compute layer ------------------------------------------------------

    def gather(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        out = np.empty((indices.shape[0], self.dim), dtype=np.float32)
        mask = self._is_hot[indices]
        hot_sel = np.flatnonzero(mask)
        cold_sel = np.flatnonzero(~mask)
        with trace("embedding.gather.tiered", hot=hot_sel.size, cold=cold_sel.size):
            if hot_sel.size:
                out[hot_sel] = self._hot[self._slot[indices[hot_sel]]]
            if cold_sel.size:
                out[cold_sel] = self._cold[indices[cold_sel]]
        return out

    def _pool(self, indices: np.ndarray, offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        # One tier-splitting gather per look-up, then the kernel's sum.
        return segment_sum_ragged(self.gather(indices), offsets)

    def dense_weight(self) -> np.ndarray:
        full = np.array(self._cold, copy=True)
        if self._hot_rows.size:
            full[self._hot_rows] = self._hot
        return full

    def _split(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hot positions, cold positions) of an index vector, each in
        original order -- the property the per-row fold order rests on."""
        indices = np.asarray(indices, dtype=np.int64)
        mask = self._is_hot[indices]
        return np.flatnonzero(mask), np.flatnonzero(~mask)

    def scatter_add_rows(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.float32)
        hot_sel, cold_sel = self._split(indices)
        if hot_sel.size:
            scatter_add_exact(
                self._hot, self._slot[indices[hot_sel]], deltas[hot_sel]
            )
        if cold_sel.size:
            scatter_add_exact(self._cold, indices[cold_sel], deltas[cold_sel])

    def scatter_add_rows_reference(
        self, indices: np.ndarray, deltas: np.ndarray
    ) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        hot_sel, cold_sel = self._split(indices)
        if hot_sel.size:
            np.add.at(self._hot, self._slot[indices[hot_sel]], deltas[hot_sel])
        if cold_sel.size:
            np.add.at(self._cold, indices[cold_sel], deltas[cold_sel])

    def apply_bag_updates(
        self, bag_grads: np.ndarray, bag_ids: np.ndarray, indices: np.ndarray
    ) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        bag_ids = np.asarray(bag_ids, dtype=np.int64)
        hot_sel, cold_sel = self._split(indices)
        if hot_sel.size:
            scatter_add_bags(
                self._hot,
                self._slot[indices[hot_sel]],
                bag_grads,
                bag_ids[hot_sel],
            )
        if cold_sel.size:
            scatter_add_bags(
                self._cold, indices[cold_sel], bag_grads, bag_ids[cold_sel]
            )

    def capacity_bytes(self) -> int:
        # RAM-resident bytes: the hot arena (the cold file is paged by
        # the OS and not counted against the training footprint).
        return self.hot_bytes

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """The flat-layout state: one assembled FP32 weight array, so
        tiered tables round-trip through the existing ``.npz`` path and
        the process backend's state arenas unchanged."""
        return {"weight": self.dense_weight()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "weight" not in state:
            raise KeyError("missing state entry 'weight'")
        value = np.asarray(state["weight"])
        if value.dtype != np.float32:
            raise ValueError(f"weight: dtype {value.dtype} != expected float32")
        if value.shape != (self.rows, self.dim):
            raise ValueError(
                f"weight: shape {value.shape} != expected {(self.rows, self.dim)}"
            )
        self._cold[...] = value
        if self._hot_rows.size:
            self._hot[...] = value[self._hot_rows]

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the arena and delete the cold file (idempotent)."""
        self._finalizer()


def apply_tiering(model, plans, cold_dir: str | None = None, share_hot: bool = True):
    """Replace ``model``'s flat FP32 tables with tiered ones, per plan.

    ``plans`` maps table id -> :class:`~repro.tiering.planner.TablePlan`
    (or any object with ``mode`` and ``hot_rows``).  Only tables owned
    by ``model`` and planned ``hot_cold`` are converted; weights carry
    over bit-exactly.  Split-BF16 tables are never tiered (the lo half
    lives with the optimizer; tiering is scoped to FP32 storage).
    Returns the list of converted table ids.
    """
    converted: list[int] = []
    for t, table in list(model.tables.items()):
        plan = plans.get(t) if hasattr(plans, "get") else plans[t]
        if plan is None or plan.mode != "hot_cold":
            continue
        if table.storage != "fp32":
            raise ValueError(
                f"table {t}: tiering requires fp32 storage, got {table.storage!r}"
            )
        # The table leaves the model's slab; once all have, it is freed.
        model.replace_table(
            t,
            TieredEmbeddingBag(
                table.rows,
                table.dim,
                weight=table.dense_weight(),
                hot_rows=plan.hot_rows,
                cold_dir=cold_dir,
                share_hot=share_hot,
                name_hint=f"t{t}",
            ),
        )
        converted.append(t)
    return converted
