"""Process-rank execution backend over POSIX shared memory (``repro.exec.mp``).

The thread backend (:mod:`repro.exec.pool`) extracts parallelism only
from NumPy kernels that release the GIL; every Python-level step of a
rank still serialises.  This module is the paper's actual recipe --
process ranks on dedicated cores talking through a shared-memory
transport -- applied to the reproduction:

* each worker **process** owns a contiguous range of
  :class:`~repro.parallel.hybrid.DistributedDLRM` ranks (model +
  optimizer + virtual clock state live in that process),
* every worker runs the *same* replicated orchestration (exchange
  strategies, DDP allreduce, collective issue) -- the SPMD style of a
  real MPI program -- while per-rank compute phases run only on the
  owning worker,
* cross-rank data (embedding outputs, MLP gradient lists, losses, rank
  clocks, collective waits) moves through fixed-layout
  ``multiprocessing.shared_memory`` mailboxes with barrier + sequence
  ("seqlock"-style header) synchronization and **fixed rank-order**
  reassembly, so every reduction folds in the exact order of the
  sequential run,
* per-rank model/optimizer state is mirrored into shared-memory
  **arenas** the parent reads/writes directly -- checkpoint consolidation
  and restore never pickle a weight tensor.

Bit-exactness contract (pinned by ``tests/train/test_process_trainer``):
losses, consolidated checkpoints and virtual clocks are bitwise
identical to the sequential and thread paths, in FP32 and Split-BF16,
at any worker count.  Batches are never shipped: each worker
synthesizes the global batch locally from ``(seed, batch_index)`` (the
:mod:`repro.exec.prefetch` determinism argument), so the transport only
ever carries activations, gradients and clocks.

Lifecycle: workers are spawn-safe (every build ingredient travels as a
picklable :class:`ProcessRecipe`), register an :func:`atexit` teardown,
propagate crashes (a failing worker aborts the barrier, peers surface
the error, the parent raises with the worker traceback), and reap
themselves if the parent dies mid-step (pipe EOF / parent-liveness
polling + barrier abort).  Nested use inside a worker is defused like
the thread pool's guard: :func:`in_worker_process` lets callers fall
back to the thread path instead of forking from a fork.

Failure semantics (:mod:`repro.resilience`): every worker stamps a
shared-memory :class:`~repro.resilience.heartbeat.HeartbeatBoard` from
its command loop and piggybacks a stamp on each mailbox round, the
parent's reply deadline polls in one-second slices watching process
liveness, and failures surface as typed
:class:`~repro.resilience.errors.WorkerCrash` /
:class:`~repro.resilience.errors.WorkerTimeout` errors carrying the
worker index, its rank range, heartbeat age and exit code -- the
diagnostics a supervisor needs to respawn and replay.  A
:class:`~repro.resilience.faults.FaultPlan` in the recipe arms
deterministic chaos at ``worker.step`` / ``comm.exchange`` /
``mailbox.publish``; with no plan installed every hook is a None-check.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
import threading
import time
import traceback
import multiprocessing as mp
from dataclasses import dataclass
from multiprocessing import shared_memory
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.exec.pool import WorkerPool
from repro.kernels.threads import static_partition
from repro.obs.tracer import Tracer, drain_current, enabled as trace_enabled, set_tracer
from repro.resilience.errors import WorkerCrash, WorkerTimeout
from repro.resilience.heartbeat import HeartbeatBoard
from repro.util import retry

_WORKER_ENV = "_REPRO_MP_WORKER"

#: Fallback mailbox capacity override (MiB), for models whose phase
#: payloads outgrow the automatic estimate.
_MAILBOX_ENV = "REPRO_MP_MAILBOX_MB"

#: Trace-mailbox capacity (bytes): one drained span batch per worker
#: must fit (a span pickles to ~200 bytes).
_OBS_MAILBOX_BYTES = 16 << 20

#: Parent <-> worker reply deadline (seconds): overrides the executor's
#: ``timeout`` argument (a spec's ``resilience.heartbeat_timeout``).
_TIMEOUT_ENV = "REPRO_MP_TIMEOUT"
_DEFAULT_TIMEOUT = 600.0

#: Worker-side barrier timeout (seconds): bounds how long an orphaned
#: worker can linger if its peers vanished without aborting the barrier.
_BARRIER_TIMEOUT = 300.0

#: Spawn method: "spawn" is the safe, portable default (macOS/Windows
#: semantics); "fork" starts much faster on Linux and accepts
#: unpicklable factories, at fork's usual caveats.
_CONTEXT_ENV = "REPRO_MP_CONTEXT"


def in_worker_process() -> bool:
    """True inside a process-rank worker (the nested-use guard: callers
    should fall back to the thread backend rather than spawn from a
    worker, mirroring ``WorkerPool.effective_workers``)."""
    return bool(os.environ.get(_WORKER_ENV))


# -- shared-memory arenas (state placement) -----------------------------------

#: One arena entry: (key, shape, dtype-string, byte offset).
ArenaLayout = list[tuple[str, tuple[int, ...], str, int]]

_ALIGN = 64

#: Mappings whose close() hit live exported views: kept alive so their
#: __del__ never retries (and warns); the OS reclaims them at exit.
_PINNED_SHM: list[shared_memory.SharedMemory] = []


def _close_shm(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except (OSError, BufferError):
        _PINNED_SHM.append(shm)


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class ShmArena:
    """A named shared-memory block holding a fixed dict of arrays.

    The parent computes the layout from a template state dict (its
    replica model), creates the block, and reads/writes it directly;
    workers attach by name and mirror their live state in/out.  Nothing
    is ever serialized -- both sides see the same bytes.
    """

    def __init__(self, shm: shared_memory.SharedMemory, layout: ArenaLayout, owner: bool):
        self._shm = shm
        self.layout = layout
        self._owner = owner
        self._views = {
            key: np.ndarray(shape, dtype=np.dtype(dt), buffer=shm.buf, offset=off)
            for key, shape, dt, off in layout
        }

    # -- construction ------------------------------------------------------

    @staticmethod
    def layout_for(state: dict[str, np.ndarray]) -> ArenaLayout:
        """Compute a layout covering ``state`` (insertion order, aligned)."""
        layout: ArenaLayout = []
        offset = 0
        for key, value in state.items():
            arr = np.asarray(value)
            layout.append((key, tuple(arr.shape), arr.dtype.str, offset))
            offset += _aligned(max(1, arr.nbytes))
        return layout

    @staticmethod
    def nbytes_for(layout: ArenaLayout) -> int:
        if not layout:
            return _ALIGN
        _, shape, dt, off = layout[-1]
        return off + _aligned(max(1, int(np.prod(shape, dtype=np.int64)) * np.dtype(dt).itemsize))

    @classmethod
    def create(cls, name: str, layout: ArenaLayout) -> "ShmArena":
        shm = shared_memory.SharedMemory(name=name, create=True, size=cls.nbytes_for(layout))
        return cls(shm, layout, owner=True)

    @classmethod
    def attach(cls, name: str, layout: ArenaLayout) -> "ShmArena":
        return cls(shared_memory.SharedMemory(name=name), layout, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- access ------------------------------------------------------------

    @property
    def views(self) -> Mapping[str, np.ndarray]:
        """The live shared view of every entry (no copy), in layout order."""
        return MappingProxyType(self._views)

    def write(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` values into the arena (keys must cover the layout)."""
        for key, shape, dt, _ in self.layout:
            arr = np.asarray(state[key])
            if tuple(arr.shape) != shape or arr.dtype.str != dt:
                raise ValueError(
                    f"arena entry {key!r} changed shape/dtype: layout has "
                    f"{shape}/{dt}, got {arr.shape}/{arr.dtype.str}"
                )
            self._views[key][...] = arr

    def read(self) -> dict[str, np.ndarray]:
        """Copy the arena out as a fresh state dict."""
        return {key: np.array(view, copy=True) for key, view in self._views.items()}

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        # Live views (checkpoint reads) may pin the mapping; the OS
        # reclaims it at process exit.
        self._views = {}
        _close_shm(self._shm)

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# -- shared-memory mailboxes (phase transport) --------------------------------

#: header: round sequence, pickle nbytes, out-of-band buffer count.
_HEADER = struct.Struct("<qqq")


class MailboxOverflow(RuntimeError):
    pass


class ShmMailbox:
    """A single-writer, many-reader, double-buffered shared-memory
    mailbox for one worker's per-round phase payload.

    ``publish`` pickles the payload with protocol 5, spilling every
    NumPy buffer out-of-band straight into the round's slot (round
    parity picks one of two slots); the slot header's round sequence is
    written last, seqlock-style, so a reader that arrives through the
    barrier can assert it is looking at the round it expects.

    ``read`` is **zero-copy**: the reconstructed arrays are read-only
    views into the writer's slot.  Double buffering makes that safe
    without a second drain barrier: the writer's round ``k+2`` publish
    is the first that reuses round ``k``'s slot, and it cannot start
    until every worker has passed the round ``k+1`` barrier -- i.e.
    until every consumer of round ``k`` has moved on.  Gathered views
    must therefore be consumed (or copied) before the *next* collective
    round completes, which every orchestration phase does.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self._shm = shm
        self._owner = owner
        self._slot = self._shm.size // 2

    @classmethod
    def create(cls, name: str, capacity: int) -> "ShmMailbox":
        return cls(
            shared_memory.SharedMemory(name=name, create=True, size=2 * capacity), True
        )

    @classmethod
    def attach(cls, name: str) -> "ShmMailbox":
        return cls(shared_memory.SharedMemory(name=name), False)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def capacity(self) -> int:
        return self._slot

    def publish(self, obj: Any, seq: int) -> None:
        buffers: list[pickle.PickleBuffer] = []
        payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        raws = [b.raw() for b in buffers]
        lens = np.array([r.nbytes for r in raws], dtype=np.int64)
        base = (seq % 2) * self._slot
        buf = self._shm.buf
        offset = _HEADER.size + lens.nbytes
        total = _aligned(offset + len(payload)) + sum(_aligned(int(n)) for n in lens)
        if total > self._slot:
            raise MailboxOverflow(
                f"phase payload of {total} bytes exceeds the {self._slot}-byte "
                f"mailbox slot; set {_MAILBOX_ENV} to raise the capacity"
            )
        buf[base + _HEADER.size : base + offset] = lens.tobytes()
        buf[base + offset : base + offset + len(payload)] = payload
        cursor = base + _aligned(offset + len(payload))
        for raw, n in zip(raws, lens):
            buf[cursor : cursor + int(n)] = raw
            cursor += _aligned(int(n))
        # Seq goes last: a reader past the barrier must see this round.
        _HEADER.pack_into(buf, base, seq, len(payload), len(lens))
        for raw in raws:
            raw.release()

    def read(self, seq: int) -> Any:
        base = (seq % 2) * self._slot
        buf = self._shm.buf
        got_seq, npickle, nbuf = _HEADER.unpack_from(buf, base)
        if got_seq != seq:
            raise RuntimeError(
                f"mailbox out of sync: expected round {seq}, found {got_seq} "
                "(a peer worker skipped or repeated a collective round)"
            )
        lens = np.frombuffer(buf, dtype=np.int64, count=nbuf, offset=base + _HEADER.size)
        offset = base + _HEADER.size + lens.nbytes
        payload = bytes(buf[offset : offset + npickle])
        cursor = base + _aligned(offset - base + npickle)
        buffers = []
        for n in lens:
            # Read-only zero-copy views: accidental writes raise, and the
            # double-buffer lifetime rule above covers staleness.
            buffers.append(buf[cursor : cursor + int(n)].toreadonly())
            cursor += _aligned(int(n))
        return pickle.loads(payload, buffers=buffers)

    def tear_header(self, seq: int) -> None:
        """Fault injection only (``torn_write``): rewrite the slot header
        with a stale round sequence, so peers reading round ``seq`` see
        the seqlock tear and raise instead of consuming stale bytes."""
        base = (seq % 2) * self._slot
        _, npickle, nbuf = _HEADER.unpack_from(self._shm.buf, base)
        _HEADER.pack_into(self._shm.buf, base, seq - 2, npickle, nbuf)

    def close(self) -> None:
        # Zero-copy gathers still referencing a slot pin the mapping;
        # the OS reclaims it at process exit.
        _close_shm(self._shm)

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# -- worker-side transport + rank pool ----------------------------------------


class WorkerTransport:
    """All-to-all payload exchange between the SPMD workers of one
    executor: publish to your mailbox, barrier, read the peers, barrier.

    The second barrier is the overwrite guard: nobody starts the next
    round's publish until everyone has finished reading this round.
    """

    def __init__(
        self,
        worker_index: int,
        barrier,
        mailboxes: list[ShmMailbox],
        timeout: float,
        heartbeat: HeartbeatBoard | None = None,
        faults: Any = None,
    ):
        self.worker_index = worker_index
        self.n_workers = len(mailboxes) if mailboxes else 1
        self.barrier = barrier
        self.mailboxes = mailboxes
        self.timeout = timeout
        self.seq = 0
        #: Liveness piggyback: each round stamps (time, seq) on the
        #: board, so the parent can tell "slow round" from "gone".
        self.heartbeat = heartbeat
        #: Armed FaultPlan, or None (the disabled path is one check).
        self.faults = faults

    def _wait(self) -> None:
        self.barrier.wait(self.timeout)

    def exchange(self, payload: Any) -> list[Any]:
        """Returns every worker's payload in worker order; the local
        entry is the original object (live references preserved), peer
        entries are read-only shared-memory views (see the mailbox's
        double-buffer lifetime rule)."""
        self.seq += 1
        if self.heartbeat is not None:
            self.heartbeat.stamp(self.worker_index, seq=self.seq)
        if self.faults is not None:
            # delay/kill/hang before the round; torn_write after publish.
            self.faults.fire("comm.exchange", worker=self.worker_index, seq=self.seq)
        if self.n_workers == 1:
            return [payload]
        box = self.mailboxes[self.worker_index]
        box.publish(payload, self.seq)
        if self.faults is not None:
            point = self.faults.fire(
                "mailbox.publish", worker=self.worker_index, seq=self.seq
            )
            if point is not None and point.action == "torn_write":
                box.tear_header(self.seq)
        self._wait()
        return [
            payload if i == self.worker_index else self.mailboxes[i].read(self.seq)
            for i in range(self.n_workers)
        ]


class SpmdRankPool:
    """Drop-in for the ``pool=`` seam of :class:`DistributedDLRM` inside
    one SPMD worker: ``map(fn, ranks)`` runs only the locally-owned
    ranks, then gathers every rank's (result, clock, waits) triple from
    the peers and replays the clock advances and collective waits into
    the local cluster replica -- after which the replicated orchestration
    continues from a state bitwise identical to the sequential run's.
    """

    def __init__(self, transport: WorkerTransport, local_ranks: range, n_ranks: int):
        self.transport = transport
        self.local_ranks = local_ranks
        self.n_ranks = n_ranks
        self.cluster = None
        #: Interface parity with WorkerPool introspection.
        self.workers = transport.n_workers

    def bind(self, cluster) -> None:
        """Attach the worker's cluster replica (starts wait journaling)."""
        self.cluster = cluster
        if self.transport.n_workers > 1:
            cluster.enable_wait_log()

    def _local_phase(self, ranks: Sequence[int], what: str) -> None:
        """Checks before a phase runs on the local ranks."""
        if list(ranks) != list(range(self.n_ranks)):
            raise ValueError(f"SpmdRankPool.{what} expects the full rank list, got {list(ranks)}")
        if self.cluster is None:
            raise RuntimeError(f"SpmdRankPool.{what} before bind(cluster)")
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
        if self.transport.n_workers == 1:
            return [fn(r) for r in items]
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
        from repro.comm.collectives import (
            canonical_node_partials,
            sum_canonical_partials,
            tree_sum,
        )

        if self.transport.n_workers == 1:
            return tree_sum([fn(r) for r in ranks], out=out)
        self._local_phase(ranks, "reduce_map")
        lo, hi = self.local_ranks.start, self.local_ranks.stop
        local = [fn(r) for r in self.local_ranks]
        all_partials: dict[tuple[int, int], Any] = {}
        for node_map in self._exchange(canonical_node_partials(local, lo, hi, self.n_ranks)):
            all_partials.update(node_map)
        # The completed root is ``out`` or freshly allocated, never a
        # partial, so it outlives the mailbox views' double-buffer lifetime.
        return sum_canonical_partials(all_partials, self.n_ranks, out=out)


# -- build plan ----------------------------------------------------------------


@dataclass
class ProcessRecipe:
    """Everything a worker needs to rebuild its replica, picklable under
    the ``spawn`` start method (the optimizer factory must be an
    importable callable -- a module-level function, ``functools.partial``
    of one, or a bound method of a picklable object such as
    ``RunSpec.build_optimizer``)."""

    dist_kwargs: dict[str, Any]
    cluster_kwargs: dict[str, Any]
    optimizer_factory: Callable[[], Any]
    dataset: Any
    batch_size: int
    prefetch_depth: int = 1
    #: Install a wall-clock tracer in each worker (captured from the
    #: parent's ``repro.obs`` switch at executor construction).
    trace: bool = False
    #: Armed :class:`~repro.resilience.faults.FaultPlan`, or None.  Each
    #: worker unpickles its own copy; with None every hook is one check.
    faults: Any = None


@dataclass
class _ArenaSpec:
    """Names + layouts of one rank's state arenas (shipped to workers)."""

    model_name: str
    model_layout: ArenaLayout
    opt_name: str
    opt_layout: ArenaLayout


# -- the worker process --------------------------------------------------------


def _parent_alive() -> bool:
    parent = mp.parent_process()
    return parent is not None and parent.is_alive()


def _pin_to_cores(worker_index: int, n_workers: int) -> None:
    """Give each worker a disjoint slice of the allowed cores (the
    paper's dedicated-cores placement; Linux only, opt out with
    ``REPRO_MP_NO_PIN``).  Keeps the scheduler from bouncing rank
    processes across each other's caches."""
    if os.environ.get("REPRO_MP_NO_PIN") or not hasattr(os, "sched_setaffinity"):
        return
    try:
        cores = sorted(os.sched_getaffinity(0))
        if len(cores) < n_workers:
            return
        lo, hi = static_partition(len(cores), n_workers)[worker_index]
        if hi > lo:
            os.sched_setaffinity(0, cores[lo:hi])
    except OSError:  # pragma: no cover - containers may forbid affinity
        pass


def _worker_main(
    worker_index: int,
    n_workers: int,
    n_ranks: int,
    rank_range: tuple[int, int],
    recipe: ProcessRecipe,
    conn,
    barrier,
    mailbox_names: list[str],
    arena_specs: dict[int, _ArenaSpec],
    trace_name: str | None = None,
    heartbeat_name: str | None = None,
) -> None:
    os.environ[_WORKER_ENV] = "1"
    _pin_to_cores(worker_index, n_workers)
    # A forked worker inherits the parent's executor registry and global
    # thread pool; both are parent-owned state that must not leak in.
    _EXECUTORS.clear()
    from repro.exec import pool as pool_mod

    with pool_mod._global_lock:
        pool_mod._global_pool = WorkerPool(1)

    from repro.exec.executor import InlineRankExecutor
    from repro.parallel.cluster import SimCluster
    from repro.parallel.hybrid import DistributedDLRM

    mailboxes: list[ShmMailbox] = []
    arenas: dict[int, tuple[ShmArena, ShmArena]] = {}
    trace_box: ShmMailbox | None = None
    heartbeat: HeartbeatBoard | None = None
    lo, hi = rank_range
    local_ranks = range(lo, hi)
    if recipe.trace:
        # Rank attribution of the merged timeline: every span drained
        # from this process carries the worker's rank range as its
        # Perfetto process-lane label.
        set_tracer(Tracer(proc=f"worker{worker_index}:ranks{lo}-{hi - 1}"))

    def _abort_and_exit() -> None:
        # Wake any peer stuck at the barrier so orphans reap fast.
        try:
            barrier.abort()
        except Exception:  # pragma: no cover - teardown best effort
            pass

    try:
        mailboxes = [ShmMailbox.attach(name) for name in mailbox_names]
        if trace_name is not None:
            trace_box = ShmMailbox.attach(trace_name)
        if heartbeat_name is not None:
            heartbeat = HeartbeatBoard.attach(heartbeat_name, n_workers)
            heartbeat.stamp(worker_index)
        transport = WorkerTransport(
            worker_index,
            barrier,
            mailboxes,
            timeout=_BARRIER_TIMEOUT,
            heartbeat=heartbeat,
            faults=recipe.faults,
        )
        pool = SpmdRankPool(transport, local_ranks, n_ranks)
        cluster = SimCluster(**recipe.cluster_kwargs)
        dist = DistributedDLRM(cluster=cluster, pool=pool, **recipe.dist_kwargs)
        dist.attach_optimizers(recipe.optimizer_factory)
        pool.bind(cluster)
        for r in local_ranks:
            spec = arena_specs[r]
            arenas[r] = (
                ShmArena.attach(spec.model_name, spec.model_layout),
                ShmArena.attach(spec.opt_name, spec.opt_layout),
            )
        # The same executor the parent uses for the thread backend, over
        # this worker's SPMD pool.  Batches are synthesized locally from
        # (seed, batch_index); a private 2-thread pool double-buffers the
        # next index under the current step (bits are index-pure either
        # way).
        ranks = InlineRankExecutor(
            dist,
            recipe.dataset,
            recipe.batch_size,
            prefetch_depth=recipe.prefetch_depth,
            prefetch_pool=WorkerPool(2),
        )
        conn.send(("ready", os.getpid()))
    except BaseException:
        _abort_and_exit()
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
        return

    try:
        while True:
            try:
                if heartbeat is not None:
                    # Idle-loop liveness: ~1 Hz while waiting, so a
                    # stale age during a step means "stuck in compute
                    # or at a barrier", not "command loop dead".
                    heartbeat.stamp(worker_index)
                if not conn.poll(1.0):
                    if not _parent_alive():
                        _abort_and_exit()
                        return
                    continue
                msg = conn.recv()
            except (EOFError, OSError):
                _abort_and_exit()
                return
            try:
                cmd = msg[0]
                if cmd == "step":
                    _, index, lr = msg
                    if heartbeat is not None:
                        heartbeat.stamp(worker_index, step=index)
                    if recipe.faults is not None:
                        recipe.faults.fire(
                            "worker.step", worker=worker_index, step=index
                        )
                    conn.send(("ok", ranks.step(index, lr)))
                elif cmd == "predict":
                    _, batch = msg
                    probs = ranks.predict(batch)
                    conn.send(("ok", probs if worker_index == 0 else None))
                elif cmd == "sync_state":
                    for r in local_ranks:
                        model_arena, opt_arena = arenas[r]
                        model_state, opt_state = ranks.rank_state_dicts(r)
                        model_arena.write(model_state)
                        opt_arena.write(opt_state)
                    conn.send(("ok", None))
                elif cmd == "load_state":
                    _, with_opt = msg
                    for r in local_ranks:
                        model_arena, opt_arena = arenas[r]
                        ranks.load_rank_state(
                            r, model_arena.read(), opt_arena.read() if with_opt else None
                        )
                    conn.send(("ok", None))
                elif cmd == "trace":
                    # Parent only asks when it created the trace
                    # mailboxes (tracing was on at executor build).
                    _, seq = msg
                    spans = drain_current()
                    assert trace_box is not None
                    trace_box.publish(spans, seq)
                    conn.send(("ok", len(spans)))
                elif cmd == "clocks":
                    conn.send(("ok", ranks.clocks()))
                elif cmd == "ping":
                    conn.send(("ok", worker_index))
                elif cmd == "stop":
                    conn.send(("ok", None))
                    return
                else:
                    raise ValueError(f"unknown worker command {cmd!r}")
            except BaseException:
                _abort_and_exit()
                try:
                    conn.send(("error", traceback.format_exc()))
                except OSError:
                    pass
                return
    finally:
        if recipe.trace:
            set_tracer(None)
        for model_arena, opt_arena in arenas.values():
            model_arena.close()
            opt_arena.close()
        for box in mailboxes:
            box.close()
        if trace_box is not None:
            trace_box.close()
        if heartbeat is not None:
            heartbeat.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# -- the parent-side executor --------------------------------------------------

_EXECUTORS: "set[ProcessRankExecutor]" = set()
_ATEXIT_REGISTERED = False
_NAME_SEQ = 0
_NAME_LOCK = threading.Lock()


def _shutdown_all() -> None:
    for executor in list(_EXECUTORS):
        executor.close()


def _register_executor(executor: "ProcessRankExecutor") -> None:
    global _ATEXIT_REGISTERED
    _EXECUTORS.add(executor)
    if not _ATEXIT_REGISTERED:
        atexit.register(_shutdown_all)
        _ATEXIT_REGISTERED = True


def _short_name(kind: str, index: int | str = "") -> str:
    """A unique shm name short enough for macOS's 31-char limit: pid + a
    process-wide sequence number make names collision-free across
    concurrent arenas."""
    global _NAME_SEQ
    with _NAME_LOCK:
        _NAME_SEQ += 1
        seq = _NAME_SEQ
    return f"rpx{os.getpid() % 0xFFFFF:05x}{seq:03x}{kind}{index}"


class ProcessRankExecutor:
    """Parent-side handle on a fleet of SPMD rank workers (the
    :class:`~repro.exec.executor.RankExecutor` of the process backend).

    Built from an (already-constructed) parent replica: the replica
    supplies the build recipe and the state-arena layouts, then stays
    behind as the layout template (``dist``/``model``/``optimizer``;
    its weights go stale) while the workers hold the live state.
    ``step``/``predict`` broadcast one command and collect the
    (bitwise identical) per-worker results; ``state_dicts``/``load_state``
    move consolidated checkpoints through the arenas without pickling a
    single tensor.
    """

    backend = "process"

    def __init__(
        self,
        dist,
        dataset,
        batch_size: int,
        workers: int | None = None,
        context: str | None = None,
        prefetch_depth: int = 1,
        eval_size_hint: int = 0,
        faults: Any = None,
        timeout: float = _DEFAULT_TIMEOUT,
    ):
        if in_worker_process():
            raise RuntimeError(
                "nested process backend: already inside a process-rank worker "
                "(use in_worker_process() to fall back to the thread backend)"
            )
        if dist.optimizers is None or dist.optimizer_factory is None:
            raise ValueError("attach_optimizers() before building a process executor")
        self.dist = dist
        self.model = dist.models[0]
        self.optimizer = dist.optimizers[0]
        self.dataset = dataset
        self.batch_size = batch_size
        n_ranks = dist.cluster.n_ranks
        self.n_ranks = n_ranks
        # Like the thread pool, the worker count is capped at the host's
        # cores: oversubscribing a small box only adds scheduling and
        # transport overhead, and results are bitwise identical at any
        # width (fixed-order reduction).
        requested = workers if workers is not None else n_ranks
        self.n_workers = max(1, min(requested, n_ranks, os.cpu_count() or n_ranks))
        ctx_name = context or os.environ.get(_CONTEXT_ENV, "spawn")
        ctx = mp.get_context(ctx_name)
        #: Reply deadline of every parent <-> worker round trip.
        self._timeout = float(os.environ.get(_TIMEOUT_ENV, timeout))
        self._closed = False
        self._procs: list[mp.process.BaseProcess] = []
        self._conns: list[Any] = []
        self._mailboxes: list[ShmMailbox] = []
        self._trace_boxes: list[ShmMailbox] = []
        self._model_arenas: dict[int, ShmArena] = {}
        self._opt_arenas: dict[int, ShmArena] = {}
        self._heartbeats: HeartbeatBoard | None = None
        self._barrier = None
        #: Captured once: workers install a tracer iff the parent had one
        #: at build time (the global switch is per process).
        self._trace = trace_enabled()
        self._trace_seq = 0

        self.owners: list[int] = list(dist.owners)

        recipe = ProcessRecipe(
            dist_kwargs=dict(dist.init_kwargs),
            cluster_kwargs=dict(dist.cluster.init_kwargs),
            optimizer_factory=dist.optimizer_factory,
            dataset=dataset,
            batch_size=batch_size,
            prefetch_depth=prefetch_depth,
            trace=self._trace,
            faults=faults,
        )
        ranges = static_partition(n_ranks, self.n_workers)
        #: Worker -> (lo, hi) rank range, kept for failure diagnostics.
        self._ranges: list[tuple[int, int]] = [tuple(r) for r in ranges]
        capacity = self._mailbox_capacity(dist, batch_size, eval_size_hint, ranges)

        def _create(factory: Callable[[str], Any], kind: str, index: int | str = ""):
            # Transient shm races (EEXIST from a recycled pid's name,
            # ENOSPC from a briefly full /dev/shm) get a fresh name and
            # a deterministic-jitter retry instead of killing the build.
            return retry(
                lambda: factory(_short_name(kind, index)),
                attempts=3,
                backoff=0.02,
                jitter_seed=(kind, index),
            )

        try:
            arena_specs: dict[int, _ArenaSpec] = {}
            for r in range(n_ranks):
                model_layout = ShmArena.layout_for(dist.models[r].state_dict())
                opt_layout = ShmArena.layout_for(
                    dist.optimizers[r].state_dict(
                        dist.models[r].parameters(), dist.models[r].tables
                    )
                )
                self._model_arenas[r] = _create(
                    lambda n, la=model_layout: ShmArena.create(n, la), "m", r
                )
                self._opt_arenas[r] = _create(
                    lambda n, la=opt_layout: ShmArena.create(n, la), "o", r
                )
                arena_specs[r] = _ArenaSpec(
                    self._model_arenas[r].name,
                    model_layout,
                    self._opt_arenas[r].name,
                    opt_layout,
                )
            if self.n_workers > 1:
                self._mailboxes = [
                    _create(lambda n: ShmMailbox.create(n, capacity), "b", i)
                    for i in range(self.n_workers)
                ]
                names = [box.name for box in self._mailboxes]
            else:
                names = []
            if self._trace:
                # One drain mailbox per worker (1-worker fleets too):
                # drained span batches come back through shared memory,
                # never the pipe.
                self._trace_boxes = [
                    _create(lambda n: ShmMailbox.create(n, _OBS_MAILBOX_BYTES), "t", i)
                    for i in range(self.n_workers)
                ]
                trace_names = [box.name for box in self._trace_boxes]
            else:
                trace_names = [None] * self.n_workers
            self._heartbeats = _create(
                lambda n: HeartbeatBoard.create(n, self.n_workers), "h"
            )
            self._barrier = ctx.Barrier(self.n_workers)
            for i, (lo, hi) in enumerate(ranges):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        i,
                        self.n_workers,
                        n_ranks,
                        (lo, hi),
                        recipe,
                        child_conn,
                        self._barrier,
                        names,
                        {r: arena_specs[r] for r in range(lo, hi)},
                        trace_names[i],
                        self._heartbeats.name,
                    ),
                    daemon=True,
                    name=f"repro-mp-{i}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            for i, conn in enumerate(self._conns):
                self._expect_ok(conn, what="worker startup", worker=i)
        except BaseException:
            self.close()
            raise
        _register_executor(self)

    # -- sizing ------------------------------------------------------------

    @staticmethod
    def _mailbox_capacity(
        dist, batch_size: int, eval_size_hint: int, ranges: list[tuple[int, int]]
    ) -> int:
        env = os.environ.get(_MAILBOX_ENV, "").strip()
        if env:
            return max(1, int(env)) << 20
        cfg = dist.cfg
        n = max(batch_size, eval_size_hint)
        dense = sum(p.nbytes for p in dist.models[0].parameters())
        emb = cfg.num_tables * n * cfg.embedding_dim * 4
        per_rank = 2 * emb + dense + (1 << 20)
        ranks_per_worker = max(hi - lo for lo, hi in ranges)
        return per_rank * ranks_per_worker + (1 << 20)

    # -- command plumbing ----------------------------------------------------

    def _diag(self, worker: int | None) -> dict[str, Any]:
        """Typed-error ingredients for ``worker`` (all None-safe)."""
        if worker is None or worker >= len(self._ranges):
            return {}
        alive = self._procs[worker].is_alive() if worker < len(self._procs) else None
        age = self._heartbeats.age_s(worker) if self._heartbeats is not None else None
        return {
            "worker_index": worker,
            "rank_range": self._ranges[worker],
            "alive": alive,
            "heartbeat_age": age,
        }

    def _dead_worker(self) -> int | None:
        """The lowest-index worker whose process has exited, or None."""
        for i, proc in enumerate(self._procs):
            if not proc.is_alive():
                return i
        return None

    def _expect_ok(self, conn, what: str, worker: int | None = None):
        """Await one worker's reply, polling in one-second slices so a
        *peer's* sudden death (which leaves this worker stuck at the
        barrier) surfaces as a fast typed :class:`WorkerCrash` instead
        of a full reply-deadline stall."""
        timeout = self._timeout
        deadline = time.monotonic() + timeout
        try:
            while not conn.poll(min(1.0, max(0.0, deadline - time.monotonic()))):
                dead = self._dead_worker()
                if dead is not None and not self._conns[dead].poll(0):
                    code = self._procs[dead].exitcode
                    raise WorkerCrash(
                        f"{what}: worker {dead} died without a reply "
                        f"(exit code {code})",
                        worker_traceback=None,
                        **self._diag(dead),
                    )
                if time.monotonic() >= deadline:
                    diag = self._diag(worker)
                    age = diag.get("heartbeat_age")
                    raise WorkerTimeout(
                        f"{what}: no reply within {timeout:.0f}s "
                        f"(worker {worker}, last heartbeat "
                        + (f"{age:.1f}s ago)" if age is not None else "never)"),
                        **diag,
                    )
            status, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrash(
                f"{what}: a process-rank worker died", **self._diag(worker)
            ) from exc
        if status == "error":
            raise WorkerCrash(
                f"{what}: worker failed:\n{payload}",
                worker_traceback=payload,
                **self._diag(worker),
            )
        return payload

    def _roundtrip(self, msg: tuple, what: str) -> list[Any]:
        if self._closed:
            raise RuntimeError("executor is closed")
        try:
            for conn in self._conns:
                conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            self.close()
            raise WorkerCrash(
                f"{what}: a process-rank worker died",
                **self._diag(self._dead_worker()),
            ) from exc
        try:
            return [
                self._expect_ok(conn, what, worker=i)
                for i, conn in enumerate(self._conns)
            ]
        except RuntimeError:
            self.close()
            raise

    # -- the public surface --------------------------------------------------

    def step(self, index: int, lr: float | None) -> float:
        """One global SGD step on batch ``index``; returns the loss.
        Workers synthesize the batch themselves: only the index and the
        scheduled ``lr`` (None = keep the optimizers' own) cross the pipe."""
        lr = None if lr is None else float(lr)
        losses = self._roundtrip(("step", int(index), lr), "train step")
        first = losses[0]
        nan = first != first
        if any(loss != first and not (nan and loss != loss) for loss in losses[1:]):
            self.close()
            raise RuntimeError(
                f"process ranks diverged: per-worker losses {losses} differ"
            )
        return losses[0]

    def predict(self, batch) -> np.ndarray:
        """Click probabilities via the distributed forward path."""
        return self._roundtrip(("predict", batch), "predict")[0]

    def sync_state(self) -> None:
        """Mirror every worker's live rank state into the shared arenas."""
        self._roundtrip(("sync_state",), "state sync")

    def state_dicts(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """(model_state, opt_state): the rank arenas consolidated exactly
        like ``DistributedDLRM.state_dict``/``optimizer_state_dict``, and
        copied out of shared memory."""
        from repro.parallel.hybrid import consolidate_state  # lazy: hybrid imports exec

        def consolidated(arenas: dict[int, ShmArena]) -> dict[str, np.ndarray]:
            views = consolidate_state([arenas[r].views for r in range(self.n_ranks)], self.owners)
            return {key: np.array(view, copy=True) for key, view in views.items()}

        self.sync_state()
        return consolidated(self._model_arenas), consolidated(self._opt_arenas)

    def load_state(
        self,
        model_state: dict[str, np.ndarray],
        opt_state: dict[str, np.ndarray] | None = None,
    ) -> None:
        """Restore a consolidated checkpoint into the live workers."""
        for r in range(self.n_ranks):
            arena = self._model_arenas[r]
            arena.write({key: model_state[key] for key in arena.views})
            if opt_state:
                opt_arena = self._opt_arenas[r]
                opt_arena.write({key: opt_state[key] for key in opt_arena.views})
        self._roundtrip(("load_state", bool(opt_state)), "state load")

    def clocks(self) -> list[float]:
        """Every rank's virtual-clock time, from the workers' replicas
        (identical in all of them after each phase sync; the bitwise
        match with the sequential cluster is pinned by tests)."""
        snapshots = self._roundtrip(("clocks",), "clock snapshot")
        if any(snap != snapshots[0] for snap in snapshots[1:]):
            self.close()
            raise RuntimeError(f"process ranks diverged: clocks {snapshots} differ")
        return snapshots[0]

    def drain_traces(self) -> list[dict[str, Any]]:
        """Every worker's tracer spans since the last drain, merged into
        one timeline (``perf_counter_ns`` is machine-wide, so worker
        timestamps are directly comparable with the parent's).

        Spans travel through per-worker shared-memory trace mailboxes --
        the same seqlock transport as phase payloads.  Returns ``[]``
        when tracing was off at executor build, or after :meth:`close`.
        """
        if not self._trace or self._closed:
            return []
        self._trace_seq += 1
        seq = self._trace_seq
        counts = self._roundtrip(("trace", seq), "trace drain")
        spans: list[dict[str, Any]] = []
        for box, count in zip(self._trace_boxes, counts):
            if count:
                # Span records are plain dicts (no NumPy buffers), so
                # the unpickle copies them out of the slot -- no
                # zero-copy lifetime to respect.
                spans.extend(box.read(seq))
        spans.sort(key=lambda s: (s["ts"], s["depth"]))
        return spans

    def worker_pids(self) -> list[int]:
        return [proc.pid for proc in self._procs if proc.pid is not None]

    def heartbeats(self) -> list[dict[str, Any]]:
        """Per-worker {worker, age_s, step, seq} liveness snapshot (the
        supervisor's failure-report ingredient); [] after close."""
        if self._heartbeats is None:
            return []
        return self._heartbeats.snapshot()

    # -- lifecycle ----------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers and release every shared-memory block.
        Idempotent; also runs from the atexit teardown."""
        if self._closed:
            return
        self._closed = True
        _EXECUTORS.discard(self)
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        # Wake any worker still blocked at the barrier (a peer that died
        # via os._exit never aborted it); idle workers are in conn.poll
        # and never touch the barrier again, so this is always safe.
        if self._barrier is not None:
            try:
                self._barrier.abort()
            except (OSError, ValueError):  # pragma: no cover - teardown
                pass
        for proc in self._procs:
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for arena in list(self._model_arenas.values()) + list(self._opt_arenas.values()):
            arena.close()
            arena.unlink()
        for box in self._mailboxes + self._trace_boxes:
            box.close()
            box.unlink()
        if self._heartbeats is not None:
            self._heartbeats.close()
            self._heartbeats.unlink()
        self._model_arenas = {}
        self._opt_arenas = {}
        self._mailboxes = []
        self._trace_boxes = []
        self._heartbeats = None
