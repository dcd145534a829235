"""Worker-side collective transport of the process backend (``repro.exec.transport``).

Every worker of one executor runs the same replicated orchestration --
the SPMD style of a real MPI program -- and only the per-rank compute
phases differ.  :class:`WorkerTransport` is the all-to-all payload
exchange between those workers (mailbox publish, barrier, zero-copy
gather in fixed worker order); :class:`SpmdRankPool` plugs it into the
``pool=`` seam of :class:`~repro.parallel.hybrid.DistributedDLRM`, so a
phase runs on the owning worker and every worker continues from the
state the sequential run would have, bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.exec.shm import ShmMailbox

if TYPE_CHECKING:
    from repro.resilience.heartbeat import HeartbeatBoard

#: Barrier timeout (seconds): bounds how long an orphaned worker can
#: linger if its peers vanished without aborting the barrier.
_BARRIER_TIMEOUT = 300.0


class WorkerTransport:
    """All-to-all payload exchange between the SPMD workers of one
    executor: publish to your mailbox, barrier, read the peers.

    One barrier per round is enough: the mailboxes are double-buffered,
    so round ``k+2``'s publish -- the first to reuse round ``k``'s slot --
    cannot start before every worker has passed round ``k+1``'s barrier
    and so has finished reading round ``k``.
    """

    def __init__(
        self,
        worker_index: int,
        barrier,
        mailboxes: list[ShmMailbox],
        heartbeat: HeartbeatBoard,
        faults: Any = None,
    ):
        self.worker_index = worker_index
        self.n_workers = len(mailboxes)
        self.barrier = barrier
        self.mailboxes = mailboxes
        self.seq = 0
        #: Liveness piggyback: each round stamps (time, seq) on the
        #: board, so the parent can tell "slow round" from "gone".
        self.heartbeat = heartbeat
        #: Armed FaultPlan, or None (the disabled path is one check).
        self.faults = faults

    def exchange(self, payload: Any) -> list[Any]:
        """Returns every worker's payload in worker order; the local
        entry is the original object (live references preserved), peer
        entries are read-only shared-memory views (see the mailbox's
        double-buffer lifetime rule)."""
        self.seq += 1
        self.heartbeat.stamp(self.worker_index, seq=self.seq)
        if self.faults is not None:
            # delay/kill/hang before the round; torn_write after publish.
            self.faults.fire("comm.exchange", worker=self.worker_index, seq=self.seq)
        box = self.mailboxes[self.worker_index]
        box.publish(payload, self.seq)
        if self.faults is not None:
            point = self.faults.fire(
                "mailbox.publish", worker=self.worker_index, seq=self.seq
            )
            if point is not None and point.action == "torn_write":
                box.tear_header(self.seq)
        self.barrier.wait(_BARRIER_TIMEOUT)
        return [
            payload if i == self.worker_index else self.mailboxes[i].read(self.seq)
            for i in range(self.n_workers)
        ]


class SpmdRankPool:
    """Drop-in for the ``pool=`` seam of :class:`DistributedDLRM` inside
    one SPMD worker of several (a fleet of one runs a 1-wide
    ``WorkerPool``): ``map(fn, ranks)`` runs only the locally-owned
    ranks, then gathers every rank's (result, clock, waits) triple from
    the peers and replays the clock advances and collective waits into
    the local cluster replica -- after which the replicated orchestration
    continues from a state bitwise identical to the sequential run's.
    """

    def __init__(self, transport: WorkerTransport, local_ranks: range, cluster):
        self.transport = transport
        self.local_ranks = local_ranks
        #: The worker's cluster replica; its waits are journaled so the
        #: peers can absorb them.
        self.cluster = cluster
        self.n_ranks = cluster.n_ranks
        cluster.enable_wait_log()

    def _local_phase(self, ranks: Sequence[int], what: str) -> None:
        """Checks before a phase runs on the local ranks."""
        if list(ranks) != list(range(self.n_ranks)):
            raise ValueError(f"SpmdRankPool.{what} expects the full rank list, got {list(ranks)}")
        # Waits journaled since the last phase happened in replicated
        # orchestration (e.g. predict's wait_all): every worker already
        # replayed them locally, so they must not be published again.
        self.cluster.drain_wait_log()

    def _exchange(self, payload: Any) -> list[Any]:
        """One transport round: every worker's ``payload`` in worker
        order; clock advances and collective waits ride along."""
        cluster = self.cluster
        clocks = {r: cluster.clocks[r].now for r in self.local_ranks}
        gathered = self.transport.exchange((payload, clocks, cluster.drain_wait_log()))
        for i, (_, clk_map, wait_list) in enumerate(gathered):
            if i == self.transport.worker_index:
                continue
            for r, now in clk_map.items():
                cluster.set_clock(r, now)
            for hid, r in wait_list:
                cluster.absorb_wait(hid, r)
        return [peer_payload for peer_payload, _, _ in gathered]

    def map(self, fn: Callable[[int], Any], items: Sequence[int]) -> list[Any]:
        self._local_phase(items, "map")
        results: list[Any] = [None] * self.n_ranks
        for res_map in self._exchange({r: fn(r) for r in self.local_ranks}):
            for r, value in res_map.items():
                results[r] = value
        return results

    def reduce_map(self, fn: Callable[[int], Any], ranks: Sequence[int], out: Any = None) -> Any:
        """Hierarchical canonical-tree fold of per-rank flat buffers.

        The thread pool's ``reduce_map`` is ``tree_sum(map(fn, ranks), out)``.
        Here each worker runs ``fn`` for its local contiguous rank range,
        folds those buffers into the *maximal canonical-subtree partials*
        of that range (a zero-transport shared-memory reduction), ships
        only the partials -- O(log ranks) buffers instead of one per
        rank -- through a single mailbox exchange, and completes the
        identical upper tree locally.  Because the canonical tree's
        split rule depends only on range sizes, the partials land on the
        exact nodes the sequential ``tree_sum`` computes, so the result
        is bitwise identical at any worker count.  Clock advances and
        collective waits piggyback on the same exchange round, exactly
        like :meth:`map`.
        """
        from repro.comm.collectives import canonical_node_partials, sum_canonical_partials

        self._local_phase(ranks, "reduce_map")
        lo, hi = self.local_ranks.start, self.local_ranks.stop
        local = [fn(r) for r in self.local_ranks]
        all_partials: dict[tuple[int, int], Any] = {}
        for node_map in self._exchange(canonical_node_partials(local, lo, hi, self.n_ranks)):
            all_partials.update(node_map)
        # The completed root is ``out`` or freshly allocated, never a
        # partial, so it outlives the mailbox views' double-buffer lifetime.
        return sum_canonical_partials(all_partials, self.n_ranks, out=out)
