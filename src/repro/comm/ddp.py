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
the wait lands after enough compute, exposed otherwise.

The issue-as-ready path (Sect. IV-C) buckets each MLP half's gradients
with :class:`GradientBucketer` and issues one allreduce per bucket the
moment its layers' backward-by-weights completes; the per-bucket
pack/unpack/transfer charges are the same formulas as the monolithic
path, just split along the fixed bucket boundaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.obs.tracer import trace

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

    def layer_range(self, k: int) -> tuple[int, int]:
        """Forward layer-index range ``[start, stop)`` of bucket ``k``."""
        return self.buckets[k]

    def nbytes(self, k: int) -> float:
        start, stop = self.buckets[k]
        return sum(self.layer_bytes(self.layer_shapes[i]) for i in range(start, stop))

    def sizes(self) -> list[float]:
        """Per-bucket gradient bytes, in issue order."""
        return [self.nbytes(k) for k in range(len(self.buckets))]

    def total_bytes(self) -> float:
        return sum(self.sizes())


class DistributedDataParallelReducer:
    """Sums gradient lists across ranks, in place."""

    def __init__(self, cluster: "SimCluster"):
        self.cluster = cluster

    def issue_timed(
        self, nbytes: float, op: str = "allreduce", blocking: bool | None = None
    ) -> "CollectiveHandle":
        """Timing-only allreduce of an ``nbytes`` gradient buffer per rank
        (framework pack+unpack charges plus the transfer issue).  The
        analytic iteration model uses this at paper scale."""
        cluster = self.cluster
        for r in cluster.ranks:
            # Pack and unpack are two separate copies (matching the
            # functional path's charges call for call).
            for _ in range(2):
                t = cluster.cost.copy_time(2.0 * nbytes, cores=cluster.compute_cores)
                cluster.clocks[r].advance(t)
                cluster.profilers[r].add(f"comm.{op}.framework", t)
        cost = cluster.net.allreduce(cluster.participants(), nbytes)
        return cluster.issue(op, cost, blocking)

    def charge_framework_copy(self, r: int, nbytes: float, op: str = "allreduce") -> None:
        """One framework copy (pack or unpack) of an ``nbytes`` gradient
        buffer on rank ``r`` -- the single charge formula shared by the
        monolithic, bucketed and analytic paths."""
        cluster = self.cluster
        t = cluster.cost.copy_time(2.0 * nbytes, cores=cluster.compute_cores)
        cluster.clocks[r].advance(t)
        cluster.profilers[r].add(f"comm.{op}.framework", t)

    def pack_grads(
        self, r: int, grads: Sequence[np.ndarray], op: str = "allreduce", bucket: int | None = None
    ) -> np.ndarray:
        """Flatten one rank's gradient list into a fresh FP32 buffer,
        charging the framework copy."""
        with trace(f"comm.{op}.framework", rank=r) as sp:
            flat = np.concatenate(
                [np.asarray(g, dtype=np.float32).ravel() for g in grads]
            )
            sp.add(bytes=flat.nbytes)
            if bucket is not None:
                sp.add(bucket=bucket)
        self.charge_framework_copy(r, flat.nbytes, op)
        return flat

    def unpack_grads(
        self,
        r: int,
        grads: Sequence[np.ndarray],
        summed: np.ndarray,
        op: str = "allreduce",
        bucket: int | None = None,
    ) -> None:
        """Scatter a summed flat buffer back into a rank's gradient
        arrays *in place*, charging the framework copy."""
        with trace(f"comm.{op}.framework", rank=r, bytes=summed.nbytes) as sp:
            if bucket is not None:
                sp.add(bucket=bucket)
            offset = 0
            for g in grads:
                n = g.size
                g[...] = summed[offset : offset + n].reshape(g.shape)
                offset += n
        self.charge_framework_copy(r, summed.nbytes, op)

    def issue_transfer(
        self, nbytes: float, op: str = "allreduce", blocking: bool | None = None
    ) -> "CollectiveHandle":
        """Issue just the network transfer of an ``nbytes`` allreduce (no
        framework charges -- the bucketed path pays those in its own
        pack/unpack tasks)."""
        cluster = self.cluster
        cost = cluster.net.allreduce(cluster.participants(), nbytes)
        return cluster.issue(op, cost, blocking)
