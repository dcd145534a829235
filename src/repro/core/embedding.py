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
from typing import Callable, Mapping

import numpy as np

from repro.core.bf16 import bf16_to_fp32, combine_fp32
from repro.core.param import checked_entry
from repro.obs.tracer import trace
from repro.kernels.dispatch import pool_rows, scatter_add_exact, split_scatter_add, uniform_fill
from repro.kernels.lookup import Lookup, check_ids, check_lookup
from repro.kernels.rows import gather_rows, split_fp32_into
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


#: Float32 elements a Split-BF16 draw makes at a time (512 KiB) before
#: it splits them into their halves, so no table-sized transient exists.
_BLOCK_ELEMS = 1 << 17


class EmbeddingBag:
    """One embedding table with sum pooling (FP32 storage)."""

    storage = "fp32"
    #: The ``(rows, dim)`` storage arrays: attribute name -> dtype, also
    #: their :meth:`state_dict` keys.  Nothing rebinds them after
    #: construction -- every writer goes through ``[...]``, ``out=`` or a
    #: fancy-index assignment -- so a :meth:`rows_view` and the bag it
    #: was cut from stay one memory.
    _arrays: dict[str, type] = {"weight": np.float32}

    def __init__(
        self,
        rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        alloc: Callable[[tuple[int, ...], np.dtype], np.ndarray] | None = None,
    ):
        """Storage drawn from ``rng`` (:meth:`draw`) into line-aligned
        memory.  With ``alloc(shape, dtype)`` the storage arrays come
        from there and stay unfilled: a model's slab, whose
        :meth:`rows_view` tables are then each drawn or loaded
        (:meth:`load_state_dict`) in place."""
        if rows <= 0 or dim <= 0:
            raise ValueError("rows and dim must be positive")
        self.rows = int(rows)
        self.dim = int(dim)
        for name, dtype in self._arrays.items():
            setattr(self, name, (alloc or aligned_empty)((self.rows, self.dim), dtype))
        if alloc is None:
            self.draw(rng or np.random.default_rng())
        #: Buffers of the pooled forward, allocated on first use.
        self._scratch = Workspace()

    # -- storage layer (overridden by SplitEmbeddingBag) ----------------------

    def draw(self, rng: np.random.Generator) -> None:
        """Fill the rows in place with the table initialiser,
        U(+-sqrt(1/rows)) from ``rng``: bitwise ``rng.uniform(-b, b,
        (rows, dim)).astype(np.float32)``, ``rng`` left where that draw
        leaves it, with no float64 transient."""
        bound = np.sqrt(1.0 / self.rows)
        uniform_fill(self.weight, rng, -bound, bound)

    def rows_view(self, start: int, stop: int) -> "EmbeddingBag":
        """A bag over rows ``[start, stop)`` whose storage *is* this
        bag's: what either one writes, the other reads.  Scratch stays
        per instance."""
        if not 0 <= start < stop <= self.rows:
            raise ValueError(f"rows [{start}, {stop}) outside a {self.rows}-row bag")
        bag = copy.copy(self)
        bag.rows = stop - start
        for name in self._arrays:
            setattr(bag, name, getattr(self, name)[start:stop])
        bag._scratch = Workspace()
        return bag

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

    def scatter_add_rows(self, indices, deltas: np.ndarray, offsets=None, scale: float = 1.0) -> None:
        """``W[indices] += fl32(scale * deltas)`` with duplicate indices
        accumulating: the numerically-exact effect every update strategy
        of Sect. III-A must produce (they only change *how* concurrently
        it happens), bit-identical to
        :func:`repro.kernels.reference.scatter_add` on :attr:`weight`.
        With bags (``offsets``, or a :class:`~repro.kernels.lookup.Lookup`
        for ``indices``) every look-up of bag ``b`` adds ``fl32(scale *
        deltas[b])``: the fused backward+update reads the small per-bag
        gradient, bitwise ``backward()`` and this method on the scaled
        gradient."""
        scatter_add_exact(self.weight, self._look_ups(indices, offsets), deltas, None, scale)

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Copies of the table's storage arrays (FP32: one weight array;
        Split-BF16: the ``hi``/``lo`` uint16 halves, together the exact
        FP32 master weight), or with ``copy=False`` the live arrays."""
        return {n: getattr(self, n).copy() if copy else getattr(self, n) for n in self._arrays}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore storage saved by :meth:`state_dict`, bit-exactly."""
        for name, dtype in self._arrays.items():
            getattr(self, name)[...] = checked_entry(state, name, (self.rows, self.dim), dtype)

    # -- compute layer -----------------------------------------------------------

    @property
    def _label(self) -> str:  # how a BadLookup names this bag
        return f"{type(self).__name__} of {self.rows} rows"

    def _check_indices(self, indices) -> np.ndarray:
        return check_ids(indices, self.rows, self._label)

    def _check_lookup(self, indices, offsets=None) -> Lookup:
        """Raw look-ups checked; a Lookup under this bag's rows as it is."""
        return check_lookup(indices, offsets, self.rows, self._label)

    def _look_ups(self, indices, offsets=None):
        """A scatter's: checked ids (one delta each) or a Lookup (one a bag)."""
        if offsets is None and not isinstance(indices, Lookup):
            return self._check_indices(indices)
        return self._check_lookup(indices, offsets)

    def forward(self, indices, offsets=None) -> np.ndarray:
        """Alg. 1: ``Y[N, E]`` with ``Y[n] = sum over bag n of W[I[s]]``;
        ``indices`` may be a Lookup, which brings its offsets."""
        look = self._check_lookup(indices, offsets)
        with trace("embedding.gather", rows=len(look)):
            return self._pool(look)

    def _pool(self, look: Lookup) -> np.ndarray:
        """Alg. 1 on checked look-ups, no ``(NS, E)`` gather; the scratch
        is this instance's (ranks pool concurrently, each its own bags)."""
        return pool_rows(self._read_rows(), look, None, self._scratch)

    def backward(self, grad_out: np.ndarray, indices, offsets=None) -> SparseGrad:
        """Alg. 2: each looked-up row receives its bag's output gradient,
        expanded by one GIL-releasing ``np.take(out=)`` of the bag ids --
        bitwise the ``np.repeat``-ed array."""
        look = self._check_lookup(indices, offsets)
        grad_out = np.ascontiguousarray(grad_out, dtype=np.float32)
        # Loudly, as np.repeat did: a clip-mode gather would reuse the last row.
        if grad_out.shape[0] != look.bags:
            raise ValueError(f"grad_out has {grad_out.shape[0]} rows for {look.bags} bags")
        bag_ids = np.repeat(np.arange(look.bags), look.lengths)
        values = np.empty((len(look), self.dim), dtype=np.float32)
        np.take(grad_out, bag_ids, axis=0, out=values, mode="clip")
        return SparseGrad(look.ids, values)


class SplitEmbeddingBag(EmbeddingBag):
    """Split-BF16 storage (paper Sect. VII).

    ``hi`` (the BF16 half) is the model tensor read by forward/backward;
    ``lo`` is optimizer state.  ``lo_bits < 16`` emulates the FP24
    experiment that keeps only 8 extra mantissa bits.
    """

    storage = "split_bf16"
    _arrays = {"hi": np.uint16, "lo": np.uint16}

    def __init__(
        self,
        rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        alloc: Callable[[tuple[int, ...], np.dtype], np.ndarray] | None = None,
        lo_bits: int = 16,
    ):
        if not 0 <= lo_bits <= 16:
            raise ValueError(f"lo_bits must be in [0, 16], got {lo_bits}")
        self.lo_bits = lo_bits
        super().__init__(rows, dim, rng=rng, alloc=alloc)

    def draw(self, rng: np.random.Generator) -> None:
        """The FP32 draw, a float32 block of rows at a time, each block
        split into its rows' ``hi`` and ``lo`` halves."""
        bound = np.sqrt(1.0 / self.rows)
        step = max(1, _BLOCK_ELEMS // self.dim)
        block = np.empty((min(step, self.rows), self.dim), np.float32)
        for lo in range(0, self.rows, step):
            w = block[: self.rows - lo]
            uniform_fill(w, rng, -bound, bound)
            split_fp32_into(w, self.lo[lo : lo + step], self.lo_bits)
            np.right_shift(w.view(np.uint32), 16, out=self.hi[lo : lo + step], casting="unsafe")

    def _read_rows(self) -> np.ndarray:
        # Forward/backward read only the BF16 half: 2x less bandwidth.
        return self.hi

    def dense_weight(self) -> np.ndarray:
        return bf16_to_fp32(self.hi)

    def master_weight(self) -> np.ndarray:
        """The implicit FP32 master: hi||lo, reconstructed exactly."""
        return combine_fp32(self.hi, self.lo)

    def scatter_add_rows(self, indices, deltas: np.ndarray, offsets=None, scale: float = 1.0) -> None:
        # Aggregate duplicates first, then run the update at full FP32
        # accuracy on the reconstructed rows (the Split-SGD trick).
        look = self._look_ups(indices, offsets)
        split_scatter_add(self.hi, self.lo, self.lo_bits, look, deltas, None, scale)
