"""The simulated SPMD cluster: per-rank virtual clocks + timed collectives.

One :class:`SimCluster` stands in for either testbed: ``platform="node"``
places ranks on the 8-socket SKX twisted hypercube, ``platform="cluster"``
on the 64-socket CLX pruned fat-tree (ranks fill sockets in order,
matching the paper's "occupy the node first before going multiple
nodes").

Execution is lockstep: the orchestrator runs each rank's compute phase
(in rank order, or concurrently on the :mod:`repro.exec` worker pool --
virtual time is charged per rank and is identical either way) and
issues collectives *collectively* (one :meth:`SimCluster.issue` covering
all ranks).  An issue returns a :class:`CollectiveHandle`; the caller
moves the data immediately (deterministic lockstep) but the *time* is
only paid at :meth:`CollectiveHandle.wait`, which is where overlap
either hides the cost or exposes it -- exactly the quantity Figs. 10-14
plot.

Backend pathologies reproduced here:

* the network transfer engine is serialised per backend (a second
  collective cannot progress before the first finishes its transfer);
* MPI completes in issue order, so a cheap alltoall waited early absorbs
  an expensive allreduce issued before it (Sect. VI-D);
* MPI's unpinned progress thread inflates any compute charged while
  requests are in flight; CCL instead donates ``dedicated_cores`` to the
  communication engine permanently.

Each rank's time is two pieces of plain data, a :class:`VirtualClock`
and a :class:`Profiler`.  Together they replace the autograd profiling
hooks the paper added to PyTorch's DDP and communication backends
(Sect. IV-C).  Both advance only by model-derived amounts, never by a
host clock, so they are bit-identical across execution backends, worker
counts and machines; the wall-clock half of the story is
:mod:`repro.obs`, whose stage names share this category vocabulary.
"""

from __future__ import annotations

from collections import defaultdict

from repro.comm.backend import BackendSpec, make_backend
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.costmodel import CostModel
from repro.hw.network import CollectiveCost, NetworkModel
from repro.hw.spec import CLX_8280, SKX_8180, SocketSpec
from repro.hw.topology import Topology, pruned_fat_tree, twisted_hypercube
from repro.obs.tracer import trace

#: Paper Fig. 11/14 series -> category prefix.
COMM_BUCKETS = {
    "Alltoall-Framework": "comm.alltoall.framework",
    "Allreduce-Framework": "comm.allreduce.framework",
    "Alltoall-Wait": "comm.alltoall.wait",
    "Allreduce-Wait": "comm.allreduce.wait",
}


class VirtualClock:
    """Monotonically advancing simulated time, in seconds (one per rank)."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move forward by ``seconds`` (must be non-negative); returns now."""
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time: {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, t: float) -> float:
        """Move forward to absolute time ``t`` if it is in the future."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f}s)"


class Profiler:
    """Accumulates modelled seconds per dot-separated category.

    Categories: ``compute.*`` (GEMMs, embedding kernels, elementwise ops),
    ``data.loader``, ``comm.<coll>.framework`` (flat-buffer packing,
    gradient averaging), ``comm.<coll>.wait`` (exposed wait of collective
    <coll>) and ``update.*`` (optimizer passes).
    """

    def __init__(self) -> None:
        self._times: dict[str, float] = defaultdict(float)

    def add(self, category: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative time charge for {category!r}: {seconds}")
        if not category:
            raise ValueError("category must be non-empty")
        self._times[category] += seconds

    def get(self, category: str) -> float:
        """Exact-category time (0.0 if never charged)."""
        return self._times.get(category, 0.0)

    def total(self, prefix: str = "") -> float:
        """Sum over all categories equal to, or nested under, ``prefix``."""
        if not prefix:
            return sum(self._times.values())
        dotted = prefix + "."
        return sum(
            t for c, t in self._times.items() if c == prefix or c.startswith(dotted)
        )

    def categories(self) -> list[str]:
        return sorted(self._times)

    def as_dict(self) -> dict[str, float]:
        return dict(self._times)

    def merge(self, other: "Profiler") -> None:
        for c, t in other._times.items():
            self._times[c] += t

    def clear(self) -> None:
        self._times.clear()

    # -- paper-figure aggregations ----------------------------------------

    def compute_time(self) -> float:
        """The "Compute" series of Figs. 10/13 (everything that is not an
        exposed communication wait)."""
        return (
            self.total("compute")
            + self.total("update")
            + self.total("data")
            + self.total("comm.alltoall.framework")
            + self.total("comm.allreduce.framework")
        )

    def comm_time(self) -> float:
        """The "Communication" series of Figs. 10/13: exposed waits."""
        return self.total("comm.alltoall.wait") + self.total("comm.allreduce.wait")

    def comm_breakdown(self) -> dict[str, float]:
        """The four stacked series of Figs. 11/14."""
        return {name: self.total(prefix) for name, prefix in COMM_BUCKETS.items()}


class CollectiveHandle:
    """An in-flight collective; ``wait(rank)`` pays the exposed time.

    ``hid`` is the issue-order sequence number of the collective -- it is
    identical across the SPMD worker processes of the process-rank
    backend (every process replays the same orchestration), which is what
    lets a rank's wait be *absorbed* by its peers (see
    :meth:`SimCluster.absorb_wait`).
    """

    def __init__(
        self,
        cluster: "SimCluster",
        op: str,
        completion: dict[int, float],
        hid: int = -1,
    ):
        self.cluster = cluster
        self.op = op
        self.completion = completion
        self.hid = hid
        self._waited: set[int] = set()

    def wait(self, rank: int) -> float:
        """Block rank until completion; returns the exposed wait seconds."""
        if rank not in self.completion:
            raise ValueError(f"rank {rank} did not participate in this {self.op}")
        if rank in self._waited:
            return 0.0
        clock = self.cluster.clocks[rank]
        exposed = max(0.0, self.completion[rank] - clock.now)
        clock.advance(exposed)
        with trace(f"comm.{self.op}.wait", rank=rank) as sp:
            sp.add(exposed_virtual_s=exposed)
        self.cluster.profilers[rank].add(f"comm.{self.op}.wait", exposed)
        self._waited.add(rank)
        self.cluster._inflight[rank].discard(self)
        self.cluster._record_wait(self, rank)
        return exposed

    def wait_all(self) -> None:
        for rank in self.completion:
            self.wait(rank)

    @property
    def done(self) -> bool:
        return len(self._waited) == len(self.completion)


class SimCluster:
    """R ranks, one socket each, joined by a modelled fabric."""

    def __init__(
        self,
        n_ranks: int,
        platform: str = "cluster",
        backend: str | BackendSpec = "ccl",
        calib: Calibration = DEFAULT_CALIBRATION,
        blocking: bool = False,
        socket: SocketSpec | None = None,
        topology: Topology | None = None,
    ):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if platform not in ("node", "cluster"):
            raise ValueError(f"platform must be 'node' or 'cluster', got {platform!r}")
        if platform == "node" and n_ranks > 8:
            raise ValueError("the 8-socket node holds at most 8 ranks")
        self.n_ranks = n_ranks
        self.platform = platform
        self.calib = calib
        self.blocking = blocking
        if socket is None:
            socket = SKX_8180 if platform == "node" else CLX_8280
        self.socket = socket
        if topology is None:
            if platform == "node":
                topology = twisted_hypercube(8)
            else:
                topology = pruned_fat_tree(max(64, n_ranks))
        if platform == "node":
            ineff = calib.upi_alltoall_inefficiency
            fixed_bw = calib.upi_alltoall_effective_bw_gbs * 1e9
        else:
            ineff, fixed_bw = 1.0, None
        self.topology = topology
        self.net = NetworkModel(
            topology, alltoall_inefficiency=ineff, alltoall_fixed_bw=fixed_bw
        )
        self.backend: BackendSpec = (
            backend if isinstance(backend, BackendSpec) else make_backend(backend, calib)
        )
        #: Reconstruction plan (picklable): process-rank workers rebuild
        #: an identical cluster from these kwargs.
        self.init_kwargs: dict[str, object] = dict(
            n_ranks=n_ranks,
            platform=platform,
            backend=self.backend,
            calib=calib,
            blocking=blocking,
            socket=socket,
            topology=topology,
        )
        self.cost = CostModel(socket, calib)
        self.clocks = [VirtualClock() for _ in range(n_ranks)]
        self.profilers = [Profiler() for _ in range(n_ranks)]
        self._inflight: list[set[CollectiveHandle]] = [set() for _ in range(n_ranks)]
        #: Per-rank completion time of the last *issued* collective (for
        #: in-order backends).
        self._last_completion = [0.0] * n_ranks
        #: Time at which the shared network engine becomes free.
        self._network_free = 0.0
        #: Issue-order sequence for handle ids (identical across SPMD
        #: worker processes: issues happen in replicated orchestration).
        self._issue_seq = 0
        #: Opt-in wait journal for the process-rank backend: ``None`` when
        #: disabled (the default; no overhead beyond one branch), else a
        #: list of (hid, rank) waits plus a registry of live handles so a
        #: peer process can absorb them (see :meth:`enable_wait_log`).
        self._wait_log: list[tuple[int, int]] | None = None
        self._live_handles: dict[int, CollectiveHandle] = {}

    # -- rank properties --------------------------------------------------------

    @property
    def ranks(self) -> range:
        return range(self.n_ranks)

    @property
    def compute_cores(self) -> int:
        """Cores available to compute after the backend's core split."""
        return self.socket.cores - self.backend.dedicated_cores

    def participants(self) -> list[int]:
        """Socket ids hosting the ranks (in rank order)."""
        return list(range(self.n_ranks))

    # -- time charging ---------------------------------------------------------------

    def charge(self, rank: int, seconds: float, category: str) -> float:
        """Charge compute time to one rank, applying backend interference
        while communication is in flight.  Returns the charged seconds."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if self._inflight[rank] and self.backend.compute_interference > 1.0:
            seconds *= self.backend.compute_interference
        self.clocks[rank].advance(seconds)
        self.profilers[rank].add(category, seconds)
        return seconds

    def charge_all(self, seconds: float, category: str) -> None:
        for r in self.ranks:
            self.charge(r, seconds, category)

    def snapshot(self) -> list[float]:
        return [c.now for c in self.clocks]

    def elapsed_since(self, snapshot: list[float]) -> float:
        """Wall-clock of the slowest rank since ``snapshot``."""
        return max(c.now - t0 for c, t0 in zip(self.clocks, snapshot))

    # -- SPMD (process-rank) synchronization hooks -----------------------------------
    #
    # The process backend (repro.exec.mp) runs one copy of this cluster
    # per worker process.  Collective *issues* happen in replicated
    # orchestration (identical in every process), but per-rank *waits*
    # happen only in the process that owns the rank -- these hooks journal
    # the local waits so peers can absorb them, keeping every process's
    # inflight sets (and hence MPI-backend compute interference) bitwise
    # in lockstep with the sequential run.

    def enable_wait_log(self) -> None:
        """Start journaling per-rank waits (process-backend workers only)."""
        if self._wait_log is None:
            self._wait_log = []

    def drain_wait_log(self) -> list[tuple[int, int]]:
        """Return and clear the (hid, rank) waits journaled so far."""
        if self._wait_log is None:
            return []
        out, self._wait_log = self._wait_log, []
        return out

    def _record_wait(self, handle: CollectiveHandle, rank: int) -> None:
        if self._wait_log is not None:
            self._wait_log.append((handle.hid, rank))
            if handle.done:
                self._live_handles.pop(handle.hid, None)

    def absorb_wait(self, hid: int, rank: int) -> None:
        """Mark ``rank``'s wait on collective ``hid`` as done without
        advancing any clock (the owning process already published the
        advanced clock).  Unknown or already-completed handles are
        ignored -- replicated orchestration may have waited them locally
        (e.g. ``wait_all`` in ``predict_proba``)."""
        handle = self._live_handles.get(hid)
        if handle is None:
            return
        handle._waited.add(rank)
        self._inflight[rank].discard(handle)
        if handle.done:
            self._live_handles.pop(hid, None)

    def set_clock(self, rank: int, now: float) -> None:
        """Set rank's clock to an absolute published time (monotonic:
        the publisher's clock can only be ahead of our stale copy)."""
        clock = self.clocks[rank]
        if now < clock.now:
            raise ValueError(
                f"rank {rank} clock would move backwards: {clock.now} -> {now}"
            )
        clock.advance_to(now)

    # -- collective issue machinery --------------------------------------------------

    def issue(
        self,
        op: str,
        cost: CollectiveCost,
        blocking: bool | None = None,
    ) -> CollectiveHandle:
        """Register a collective with transfer cost ``cost`` and return a
        handle.  This is the timing half; the bytes move in the caller
        (:mod:`repro.comm.strategies`, :mod:`repro.comm.ddp`), which
        prices them with :attr:`net` and may compose several transfers
        into one issue."""
        start = max(c.now for c in self.clocks)
        duration = cost.scaled(self.backend.bw_factor).total + self.backend.call_overhead_s
        # The fabric/progress engine is shared: a collective cannot start
        # transferring before the previous one is done.
        transfer_start = max(start, self._network_free)
        raw_done = transfer_start + duration
        self._network_free = raw_done
        completion: dict[int, float] = {}
        for r in self.ranks:
            done = raw_done
            if self.backend.in_order:
                done = max(done, self._last_completion[r])
                self._last_completion[r] = done
            completion[r] = done
        handle = CollectiveHandle(self, op, completion, hid=self._issue_seq)
        self._issue_seq += 1
        if self._wait_log is not None:
            self._live_handles[handle.hid] = handle
        for r in self.ranks:
            self._inflight[r].add(handle)
        effective_blocking = self.blocking if blocking is None else blocking
        if effective_blocking:
            handle.wait_all()
        return handle
