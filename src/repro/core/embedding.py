"""EmbeddingBag: multi-hot embedding look-up (paper Algorithms 1-3).

The sparse half of DLRM.  A table ``W[M, E]`` is read with a flat index
vector ``I[NS]`` segmented into ``N`` bags by ``O[N+1]`` offsets:

* forward  (Alg. 1): ``Y[n] = sum_{s in bag n} W[I[s]]``
* backward (Alg. 2): ``dW[s] = dY[n]`` for every s in bag n -- a *sparse*
  gradient carried as (indices, values) pairs,
* update   (Alg. 3): ``W[I[s]] += alpha * dW[s]`` -- the racy scatter that
  Sect. III-A's four strategies implement (see :mod:`repro.core.update`).

Two storage formats are supported: plain FP32, and the Split-BF16 format
of Sect. VII where the model half (``hi``) is a valid BF16 tensor and the
low half lives with the optimizer.  The forward/backward passes of a
split table read only ``hi`` -- the 2x bandwidth saving the paper claims
for 66% of the training passes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core.bf16 import bf16_to_fp32, combine_fp32, split_fp32, truncate_lo_bits
from repro.core.param import checked_entry
from repro.obs.tracer import trace
from repro.kernels import reference
from repro.kernels.dispatch import pool_rows, scatter_add_exact, split_scatter_add
from repro.kernels.rows import gather_rows
from repro.kernels.workspace import Workspace, aligned_empty


@dataclass
class SparseGrad:
    """Gradient of one EmbeddingBag: row ``indices[i]`` receives ``values[i]``.

    Duplicate indices are legal and *must* accumulate -- that is exactly
    the race the paper's update strategies are about.
    """

    indices: np.ndarray  # (NS,) int64
    values: np.ndarray  # (NS, E) float32

    def __post_init__(self) -> None:
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.indices.ndim != 1 or self.values.ndim != 2:
            raise ValueError("SparseGrad needs 1-D indices and 2-D values")
        if self.indices.shape[0] != self.values.shape[0]:
            raise ValueError(
                f"indices/values length mismatch: {self.indices.shape[0]} "
                f"vs {self.values.shape[0]}"
            )

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def aggregated(self) -> tuple[np.ndarray, np.ndarray]:
        """(unique_indices, summed_values): duplicates folded together.

        ``np.unique``, then the scatter-add of every value into a zeroed
        row per unique index in input order: the bits of
        :func:`repro.kernels.reference.aggregate_duplicates`
        (``np.add.at`` on the inverse), and the C loop where it runs.
        """
        uniq, inverse = np.unique(self.indices, return_inverse=True)
        sums = np.zeros((uniq.shape[0], self.values.shape[1]), dtype=np.float32)
        scatter_add_exact(sums, inverse, self.values)
        return uniq, sums


def check_offsets(offsets: np.ndarray, nnz: int) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, bag lengths)`` of N+1 bag offsets over ``nnz`` look-ups,
    as ``int64``; raises unless they are non-decreasing and span exactly
    ``[0, nnz]``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 1:
        raise ValueError("offsets must be a 1-D array of N+1 entries")
    lengths = np.diff(offsets)
    if (lengths < 0).any():
        raise ValueError("offsets must be non-decreasing")
    if offsets[0] != 0 or offsets[-1] != nnz:
        raise ValueError("offsets must span exactly the rows array")
    return offsets, lengths


def segment_sum(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum ``rows`` into segments delimited by ``offsets`` (N+1 entries).

    Validates the segment structure, then runs
    :func:`repro.kernels.reference.segment_sum`, the unbuffered
    scatter-add (the NumPy analogue of Alg. 1's inner loop).  Empty
    bags yield zero rows.
    """
    offsets, _ = check_offsets(offsets, rows.shape[0])
    return reference.segment_sum(rows, offsets)


#: Float32 elements the initialiser draws at a time (512 KiB), so no
#: table-sized transient exists.
_BLOCK_ELEMS = 1 << 17


class EmbeddingBag:
    """One embedding table with sum pooling (FP32 storage)."""

    storage = "fp32"
    #: The ``(rows, dim)`` storage arrays, by attribute name.  Nothing
    #: rebinds them after construction -- every writer goes through
    #: ``[...]``, ``out=`` or a fancy-index assignment -- so a
    #: :meth:`rows_view` and the bag it was cut from stay one memory.
    _arrays: tuple[str, ...] = ("weight",)

    def __init__(
        self,
        rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        weight: np.ndarray | None = None,
    ):
        if rows <= 0 or dim <= 0:
            raise ValueError("rows and dim must be positive")
        self.rows = int(rows)
        self.dim = int(dim)
        if weight is not None:
            w = np.ascontiguousarray(weight, dtype=np.float32)
            if w.shape != (rows, dim):
                raise ValueError(f"weight must be ({rows}, {dim}), got {w.shape}")
        else:
            # U(+-sqrt(1/rows)), drawn a block of rows at a time: the
            # generator fills in C order, so the blocks are the one-shot
            # draw bit for bit without its table-sized float64 transient.
            rng = rng or np.random.default_rng()
            bound = np.sqrt(1.0 / rows)
            w = aligned_empty((rows, dim), np.float32)
            step = max(1, _BLOCK_ELEMS // dim)
            for lo in range(0, rows, step):
                w[lo : lo + step] = rng.uniform(-bound, bound, size=(min(step, rows - lo), dim))
        self._init_storage(w)
        #: Buffers of the pooled forward, allocated on first use.
        self._scratch = Workspace()

    # -- storage layer (overridden by SplitEmbeddingBag) ----------------------

    def _init_storage(self, w: np.ndarray) -> None:
        self.weight = w

    def _over(self, rows: int, pick: Callable[[np.ndarray], np.ndarray]) -> "EmbeddingBag":
        """A bag like this one over ``rows`` rows, its storage arrays
        ``pick(array)`` of this one's; scratch stays per instance."""
        bag = copy.copy(self)
        bag.rows = rows
        for name in self._arrays:
            setattr(bag, name, pick(getattr(self, name)))
        bag._scratch = Workspace()
        return bag

    def rows_view(self, start: int, stop: int) -> "EmbeddingBag":
        """A bag over rows ``[start, stop)`` whose storage *is* this
        bag's: what either one writes, the other reads."""
        if not 0 <= start < stop <= self.rows:
            raise ValueError(f"rows [{start}, {stop}) outside a {self.rows}-row bag")
        return self._over(stop - start, lambda a: a[start:stop])

    def storage_rows(self, indices: np.ndarray) -> np.ndarray:
        """The storage rows that pre-checked ``indices`` name: the ids
        themselves, unless a subclass keeps its rows in another order
        (:class:`~repro.tiering.store.TieredEmbeddingBag`).  This is what
        a model shifts by the table's first slab row when it fuses a
        batch into the slab's id space."""
        return indices

    def _read_rows(self) -> np.ndarray:
        """The array forward/backward read rows from."""
        return self.weight

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Read rows in compute precision (FP32 here; BF16 when split).

        The range check keeps fancy indexing's loud out-of-range failure
        (the clip-mode gather would silently read the last row).
        """
        indices = self._check_indices(indices)
        out = np.empty((indices.shape[0], self.dim), dtype=np.float32)
        return gather_rows(self._read_rows(), indices, out)

    def dense_weight(self) -> np.ndarray:
        """The full table as the compute pass sees it (tests/inspection)."""
        return self.weight

    def scatter_add_rows(
        self, indices: np.ndarray, deltas: np.ndarray, delta_rows: np.ndarray | None = None
    ) -> None:
        """``W[indices] += deltas`` with duplicate indices accumulating.

        This is the numerically-exact effect every update strategy of
        Sect. III-A must produce (atomics, RTM and the race-free
        partitioning only change *how* concurrently it happens).  With
        ``delta_rows``, look-up ``i`` adds ``deltas[delta_rows[i]]``: the
        fused backward+update entry, which reads per-lookup deltas from
        the small per-bag gradient array instead of a
        ``np.repeat``-materialised ``dW`` (bit-identical to
        ``backward()`` followed by this method on the pre-scaled
        gradient).  Bit-identical to
        :func:`repro.kernels.reference.scatter_add` on :attr:`weight`.
        """
        scatter_add_exact(
            self.weight, np.asarray(indices, dtype=np.int64), deltas, value_rows=delta_rows
        )

    def capacity_bytes(self) -> int:
        """Model + optimizer-state bytes held for this table."""
        return self.rows * self.dim * 4

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of the table's storage tensors (FP32: one weight array)."""
        return {"weight": self.weight.copy()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore storage saved by :meth:`state_dict`, bit-exactly."""
        self.weight[...] = self._state_array(state, "weight", np.float32)

    def _state_array(self, state: dict[str, np.ndarray], key: str, dtype: type) -> np.ndarray:
        """``state[key]``, checked to be a ``(rows, dim)`` array of ``dtype``."""
        return checked_entry(state, key, (self.rows, self.dim), dtype)

    # -- compute layer -----------------------------------------------------------

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("embedding indices must be a flat 1-D vector")
        if indices.size and (indices.min() < 0 or indices.max() >= self.rows):
            raise IndexError("embedding indices out of range")
        return indices

    def _check_lookup(
        self, indices: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated ``(indices, offsets, bag lengths)`` of one look-up."""
        indices = self._check_indices(indices)
        return (indices, *check_offsets(offsets, indices.shape[0]))

    def forward(self, indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Alg. 1: ``Y[N, E]`` with ``Y[n] = sum over bag n of W[I[s]]``."""
        indices, offsets, lengths = self._check_lookup(indices, offsets)
        with trace("embedding.gather", rows=indices.shape[0]):
            return self._pool(indices, offsets, lengths)

    def _pool(self, indices: np.ndarray, offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Alg. 1 on checked inputs.  The ``(NS, E)`` gather never
        exists; what scratch the kernel needs belongs to this instance
        (ranks pool concurrently on the thread pool, each through its
        own bags)."""
        return pool_rows(self._read_rows(), indices, offsets, lengths, self._scratch)

    def backward(
        self, grad_out: np.ndarray, indices: np.ndarray, offsets: np.ndarray
    ) -> SparseGrad:
        """Alg. 2: each looked-up row receives its bag's output gradient.

        The row-per-lookup expansion gathers through ``np.take(out=)``
        instead of ``np.repeat``: only the small ``(NS,)`` bag-id vector
        is repeated, the ``(NS, E)`` payload is one GIL-releasing gather
        of the same rows -- bitwise the repeated array.
        """
        indices, offsets, lengths = self._check_lookup(indices, offsets)
        grad_out = np.ascontiguousarray(grad_out, dtype=np.float32)
        # Keep the loud failure the np.repeat spelling had: a clip-mode
        # gather would silently reuse grad_out's last row instead.
        if grad_out.shape[0] != lengths.shape[0]:
            raise ValueError(
                f"grad_out has {grad_out.shape[0]} rows for "
                f"{lengths.shape[0]} bags"
            )
        bag_ids = np.repeat(np.arange(lengths.shape[0]), lengths)
        values = np.empty((indices.shape[0], self.dim), dtype=np.float32)
        np.take(grad_out, bag_ids, axis=0, out=values, mode="clip")
        return SparseGrad(indices, values)


def stack_tables(
    tables: Iterable[EmbeddingBag],
    total_rows: int,
    alloc: Callable[[tuple[int, ...], np.dtype], np.ndarray] | None = None,
) -> tuple[EmbeddingBag | None, list[EmbeddingBag]]:
    """Move ``tables`` into one *slab* bag of ``total_rows`` rows.

    The ``nn.Embedding(sum(rows))`` + per-table offsets construction:
    returns the slab -- same class and settings as the tables, its
    storage arrays theirs back to back -- and one :meth:`rows_view
    <EmbeddingBag.rows_view>` per table, in order, holding that table's
    exact bits.  ``tables`` is consumed one at a time (pass a
    generator), so at most one stand-alone table is alive beside the
    slab.  ``alloc(shape, dtype)`` provides the slab's storage arrays
    (default :func:`~repro.kernels.workspace.aligned_empty`, so a table
    whose rows are whole cache lines starts on one too;
    :func:`repro.tiering.store.file_backed` puts them on a file
    mapping).  No tables, no slab: ``(None, [])``.
    """
    alloc = alloc or aligned_empty
    slab, views, start = None, [], 0
    for table in tables:
        if slab is None:
            slab = table._over(total_rows, lambda a: alloc((total_rows, *a.shape[1:]), a.dtype))
        view = slab.rows_view(start, start + table.rows)
        for name in table._arrays:
            getattr(view, name)[...] = getattr(table, name)
        views.append(view)
        start += table.rows
        table = None  # dropped before the generator builds the next one
    if start != total_rows:
        raise ValueError(f"tables hold {start} rows, slab was sized for {total_rows}")
    return slab, views


class SplitEmbeddingBag(EmbeddingBag):
    """Split-BF16 storage (paper Sect. VII).

    ``hi`` (the BF16 half) is the model tensor read by forward/backward;
    ``lo`` is optimizer state.  ``lo_bits < 16`` emulates the FP24
    experiment that keeps only 8 extra mantissa bits.
    """

    storage = "split_bf16"
    _arrays = ("hi", "lo")

    def __init__(
        self,
        rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        weight: np.ndarray | None = None,
        lo_bits: int = 16,
    ):
        if not 0 <= lo_bits <= 16:
            raise ValueError(f"lo_bits must be in [0, 16], got {lo_bits}")
        self.lo_bits = lo_bits
        super().__init__(rows, dim, rng=rng, weight=weight)

    def _init_storage(self, w: np.ndarray) -> None:
        hi, lo = split_fp32(w)
        self.hi = hi
        self.lo = truncate_lo_bits(lo, self.lo_bits)

    def _read_rows(self) -> np.ndarray:
        # Forward/backward read only the BF16 half: 2x less bandwidth.
        return self.hi

    def dense_weight(self) -> np.ndarray:
        return bf16_to_fp32(self.hi)

    def master_weight(self) -> np.ndarray:
        """The implicit FP32 master: hi||lo, reconstructed exactly."""
        return combine_fp32(self.hi, self.lo)

    def scatter_add_rows(
        self, indices: np.ndarray, deltas: np.ndarray, delta_rows: np.ndarray | None = None
    ) -> None:
        # Aggregate duplicates first, then run the update at full FP32
        # accuracy on the reconstructed rows (the Split-SGD trick).
        split_scatter_add(
            self.hi,
            self.lo,
            self.lo_bits,
            np.asarray(indices, dtype=np.int64),
            deltas,
            value_rows=delta_rows,
        )

    def capacity_bytes(self) -> int:
        # 2 bytes model (hi) + 2 bytes optimizer state (lo): same total as
        # FP32, with zero master-weight overhead.
        return self.rows * self.dim * (2 + 2)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Both 16-bit halves -- together the exact FP32 master weight."""
        return {"hi": self.hi.copy(), "lo": self.lo.copy()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.hi[...] = self._state_array(state, "hi", np.uint16)
        self.lo[...] = self._state_array(state, "lo", np.uint16)
