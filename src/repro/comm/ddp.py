"""DDP-style gradient reducer for the data-parallel MLPs.

Mirrors what the paper does to PyTorch's DistributedDataParallel
(Sect. IV-B/C): wrap the bottom and top MLPs, allreduce their weight
gradients during the backward pass, and optionally force *blocking*
allreduce with profiling hooks -- the instrumentation mode behind
Figs. 10-14.

Framework costs (flattening the gradient list into one buffer, and the
unflatten + averaging on the way out) are charged to
``comm.allreduce.framework``; the transfer itself is charged to
``comm.allreduce.wait`` at whichever point the caller waits -- hidden if
the wait lands after enough compute, exposed otherwise.  Those copies
are *modelled*, not made: a bucket is a slice of the model's gradient
flat (:class:`BucketSlice`), sent and read where it lies.

The issue-as-ready path (Sect. IV-C) buckets each MLP half's gradients
with :class:`GradientBucketer` and issues one allreduce per bucket the
moment its layers' backward-by-weights completes; the per-bucket
pack/unpack/transfer charges are the same formulas as the monolithic
path, just split along the fixed bucket boundaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.param import Parameter

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.cluster import CollectiveHandle, SimCluster


class GradientBucketer:
    """Size-capped, layer-granular gradient buckets in reverse layer order.

    Bucket membership is a pure function of the MLP's layer shapes and
    the byte cap -- never of timing -- so every rank, worker and backend
    agrees on the bucket boundaries and the summation stays bit-identical
    regardless of when each bucket's allreduce is issued.  Buckets are
    listed in *issue order*: the last layer's gradients (ready first in
    backward) land in bucket 0.  Every bucket holds at least one whole
    layer; a single layer larger than the cap gets its own bucket.
    *Inside* a bucket the tensors run ascending, ``[weight, bias]`` per
    layer -- the order ``MLP.parameters()`` lists them and a
    :class:`~repro.core.param.DenseSlab` lays them out -- so a bucket is
    one contiguous slice of the gradient flat (:meth:`slices`).
    """

    def __init__(self, layer_shapes: Sequence[tuple[int, int]], cap_bytes: float):
        if not layer_shapes:
            raise ValueError("need at least one layer")
        if cap_bytes <= 0:
            raise ValueError(f"bucket cap must be positive, got {cap_bytes}")
        self.layer_shapes = [tuple(s) for s in layer_shapes]
        self.cap_bytes = float(cap_bytes)
        n = len(self.layer_shapes)
        buckets: list[tuple[int, int]] = []
        stop = n
        acc = 0.0
        for i in range(n - 1, -1, -1):
            nb = self.layer_bytes(self.layer_shapes[i])
            if stop - (i + 1) >= 1 and acc + nb > self.cap_bytes:
                buckets.append((i + 1, stop))
                stop = i + 1
                acc = 0.0
            acc += nb
        buckets.append((0, stop))
        #: ``(start, stop)`` forward layer-index ranges, in issue order
        #: (descending layer index).
        self.buckets = buckets

    @staticmethod
    def layer_bytes(shape: tuple[int, int]) -> float:
        """FP32 gradient bytes of one layer: weight (fi x fo) + bias (fo)."""
        fi, fo = shape
        return float((fi * fo + fo) * 4)

    def __len__(self) -> int:
        return len(self.buckets)

    def slices(self, params: Sequence[Parameter]) -> list[BucketSlice]:
        """One rank's end of every bucket, in issue order, given its
        MLP's ``parameters()`` (two per layer)."""
        return [BucketSlice.of(params[2 * start : 2 * stop]) for start, stop in self.buckets]

    def nbytes(self, k: int) -> float:
        start, stop = self.buckets[k]
        return sum(self.layer_bytes(self.layer_shapes[i]) for i in range(start, stop))


@dataclass(frozen=True)
class BucketSlice:
    """One rank's end of a gradient bucket: ``params`` (consecutive
    slots of its :class:`~repro.core.param.DenseSlab`), the ``span`` of
    the slab's flats that holds them, and their payload ``nbytes`` --
    what every virtual charge prices; the span also covers padding."""

    params: tuple[Parameter, ...]
    span: slice
    nbytes: int

    @classmethod
    def of(cls, params: Sequence[Parameter]) -> "BucketSlice":
        if not params or params[0].slab is None:
            raise ValueError("a gradient bucket is a run of parameters of one DenseSlab")
        return cls(tuple(params), params[0].slab.span(params), sum(p.nbytes for p in params))

    @property
    def grads(self) -> np.ndarray:
        """The live slice of the rank's gradient flat."""
        return self.params[0].slab.grads[self.span]


class DistributedDataParallelReducer:
    """The per-rank ends of a bucketed gradient allreduce and its
    virtual-time charges, each buffer size priced once."""

    def __init__(self, cluster: "SimCluster"):
        self.cluster = cluster
        cores = cluster.compute_cores
        self._copy_time = functools.cache(
            lambda nbytes: cluster.cost.copy_time(2.0 * nbytes, cores=cores)
        )
        self._transfer_cost = functools.cache(
            lambda nbytes: cluster.net.allreduce(cluster.participants(), nbytes)
        )

    def issue_timed(
        self, nbytes: float, op: str = "allreduce", blocking: bool | None = None
    ) -> "CollectiveHandle":
        """Timing-only allreduce of an ``nbytes`` gradient buffer per rank
        (framework pack+unpack charges plus the transfer issue).  The
        analytic iteration model uses this at paper scale."""
        for r in self.cluster.ranks:
            # Pack and unpack are two separate copies (matching the
            # functional path's charges call for call).
            for _ in range(2):
                self.charge_framework_copy(r, nbytes, op)
        return self.issue_transfer(nbytes, op, blocking)

    def charge_framework_copy(self, r: int, nbytes: float, op: str = "allreduce") -> None:
        """One framework copy (pack or unpack) of an ``nbytes`` gradient
        buffer on rank ``r`` -- the single charge formula shared by the
        monolithic, bucketed and analytic paths."""
        t = self._copy_time(nbytes)
        self.cluster.clocks[r].advance(t)
        self.cluster.profilers[r].add(f"comm.{op}.framework", t)

    def pack_grads(
        self, r: int, bucket: BucketSlice, op: str = "allreduce", index: int | None = None
    ) -> np.ndarray:
        """Rank ``r``'s send buffer of one bucket: the live slice of its
        gradient flat (the fold only reads it), charging the framework
        copy.  Every gradient must be pending: a slot nobody wrote this
        step still holds the last step's."""
        stale = [p for p in bucket.params if p.grad is None]
        if stale:
            raise RuntimeError(f"bucket {index}: no gradient pending for {stale[0]!r}")
        self.charge_framework_copy(r, bucket.nbytes, op)
        return bucket.grads

    def unpack_grads(
        self,
        r: int,
        bucket: BucketSlice,
        summed: np.ndarray,
        op: str = "allreduce",
        index: int | None = None,
    ) -> None:
        """Rank ``r``'s receive end of one reduced bucket: the framework
        copy is charged, not made -- every dense step reads ``summed``
        where it lies (``step_dense(reduced=)``)."""
        self.charge_framework_copy(r, bucket.nbytes, op)

    def issue_transfer(
        self, nbytes: float, op: str = "allreduce", blocking: bool | None = None
    ) -> "CollectiveHandle":
        """Issue just the network transfer of an ``nbytes`` allreduce (no
        framework charges -- the bucketed path pays those in its own
        pack/unpack tasks)."""
        return self.cluster.issue(op, self._transfer_cost(nbytes), blocking)
