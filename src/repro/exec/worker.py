"""The worker process of the process backend (``repro.exec.worker``).

A worker owns a contiguous range of
:class:`~repro.parallel.hybrid.DistributedDLRM` ranks: it rebuilds the
replica from a picklable :class:`ProcessRecipe` (spawn-safe), wraps it in
the same :class:`~repro.exec.executor.InlineRankExecutor` the thread
backend uses -- over an :class:`~repro.exec.transport.SpmdRankPool`, so
only its own ranks compute -- and then answers the parent's commands on
one pipe, each through one entry of a handler table.  Batches are never
shipped: the worker synthesizes the global batch from
``(seed, batch_index)``, so commands carry an index, not data.

Failure has one path.  Whatever goes wrong -- while building, inside a
command, or because the parent vanished (pipe EOF, liveness poll) -- the
worker aborts the shared barrier, so peers blocked in a collective wake
instead of lingering as orphans, reports the traceback if there is still
a pipe to report on, releases its mappings and exits.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from contextlib import ExitStack, closing
from dataclasses import dataclass
from typing import Any, Callable

from repro.exec.pool import WorkerPool, set_pool_workers
from repro.exec.shm import ArenaLayout, ShmArena, ShmBlock, ShmMailbox
from repro.exec.transport import SpmdRankPool, WorkerTransport
from repro.kernels.threads import static_partition
from repro.obs.tracer import Tracer, drain_current, set_tracer
from repro.resilience.heartbeat import HeartbeatBoard

#: Set in every worker's environment: the nested-use marker
#: :func:`repro.exec.mp.in_worker_process` reads.
WORKER_ENV = "_REPRO_MP_WORKER"

#: Key prefixes of the two halves of a rank's state arena.
MODEL, OPT = "m.", "o."


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
class WorkerSeat:
    """One worker's place in the fleet: which ranks it owns and the
    channels (pipe, barrier, shared-memory names) it shares with the
    parent and its peers."""

    index: int
    n_workers: int
    rank_range: tuple[int, int]
    conn: Any
    barrier: Any
    mailbox_names: list[str]
    #: Every rank's (arena name, layout); the worker attaches its own.
    arenas: list[tuple[str, ArenaLayout]]
    heartbeat_name: str


def _pin_to_cores(worker_index: int, n_workers: int) -> None:
    """Give each worker a disjoint slice of the allowed cores (the
    paper's dedicated-cores placement; Linux only).  Keeps the scheduler
    from bouncing rank processes across each other's caches."""
    if not hasattr(os, "sched_setaffinity"):
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


def _build(seat: WorkerSeat, recipe: ProcessRecipe, stack: ExitStack):
    """Attach the shared memory (``stack`` closes the mappings), rebuild
    the replica and return ``(handlers, heartbeat)``: the command table
    over the replica's executor and the board the serve loop stamps."""
    from repro.exec.executor import InlineRankExecutor
    from repro.parallel.cluster import SimCluster
    from repro.parallel.hybrid import DistributedDLRM

    def attached(block: ShmBlock):
        return stack.enter_context(closing(block))

    mailboxes = [attached(ShmMailbox(name)) for name in seat.mailbox_names]
    heartbeat = attached(HeartbeatBoard(seat.heartbeat_name, seat.n_workers))
    heartbeat.stamp(seat.index)
    cluster = SimCluster(**recipe.cluster_kwargs)
    # A fleet of one owns every rank: nothing to exchange, the 1-wide pool.
    pool = WorkerPool(1)
    if seat.n_workers > 1:
        transport = WorkerTransport(seat.index, seat.barrier, mailboxes, heartbeat, recipe.faults)
        pool = SpmdRankPool(transport, range(*seat.rank_range), cluster)
    dist = DistributedDLRM(cluster=cluster, pool=pool, **recipe.dist_kwargs)
    dist.attach_optimizers(recipe.optimizer_factory)
    arenas = {r: attached(ShmArena(*seat.arenas[r])) for r in range(*seat.rank_range)}
    # The same executor the parent uses for the thread backend, over this
    # worker's SPMD pool.  A 2-wide pool double-buffers the next batch
    # index under the current step on this worker's helpers, if its cores
    # leave it any (bits are index-pure either way).
    ranks = InlineRankExecutor(
        dist,
        recipe.dataset,
        recipe.batch_size,
        prefetch_depth=recipe.prefetch_depth,
        prefetch_pool=WorkerPool(2),
    )

    def step(index: int, lr: float | None) -> float:
        heartbeat.stamp(seat.index, step=index)
        if recipe.faults is not None:
            recipe.faults.fire("worker.step", worker=seat.index, step=index)
        return ranks.step(index, lr)

    def predict(batch):
        # A collective: every worker runs it, one copy of the answer returns.
        probs = ranks.predict(batch)
        return probs if seat.index == 0 else None

    def sync_state() -> None:
        for r, arena in arenas.items():
            model_state, opt_state = ranks.rank_state_dicts(r)
            arena.write(model_state, MODEL)
            arena.write(opt_state, OPT)

    def load_state(with_opt: bool) -> None:
        for r, arena in arenas.items():
            ranks.load_rank_state(r, arena.read(MODEL), arena.read(OPT) if with_opt else None)

    handlers = {
        "step": step,
        "predict": predict,
        "sync_state": sync_state,
        "load_state": load_state,
        "clocks": ranks.clocks,
        "trace": drain_current,
    }
    return handlers, heartbeat


def _serve(seat: WorkerSeat, handlers: dict[str, Callable], heartbeat) -> None:
    """Answer ``(command, *args)`` messages with ``("ok", result)`` until
    ``("stop",)``; a vanished parent raises into the failure path."""
    conn = seat.conn
    parent = mp.parent_process()
    while True:
        # Idle-loop liveness: ~1 Hz while waiting, so a stale age during
        # a step means "stuck in compute or at a barrier", not "command
        # loop dead".
        heartbeat.stamp(seat.index)
        if not conn.poll(1.0):
            if parent is None or not parent.is_alive():
                raise EOFError("the parent process is gone")
            continue
        command, *args = conn.recv()
        if command == "stop":
            conn.send(("ok", None))
            return
        conn.send(("ok", handlers[command](*args)))


def worker_main(recipe: ProcessRecipe, seat: WorkerSeat) -> None:
    os.environ[WORKER_ENV] = "1"
    _pin_to_cores(seat.index, seat.n_workers)
    # A forked worker inherits the parent's executor registry and pool
    # width; both are parent-owned state that must not leak in (the fork
    # already dropped the parent's helper threads).
    from repro.exec import mp as mp_mod

    mp_mod._EXECUTORS.clear()
    set_pool_workers(1)
    if recipe.trace:
        # Rank attribution of the merged timeline: every span drained
        # from this process carries the worker's rank range as its
        # Perfetto process-lane label.
        lo, hi = seat.rank_range
        set_tracer(Tracer(proc=f"worker{seat.index}:ranks{lo}-{hi - 1}"))
    with ExitStack() as stack:
        try:
            handlers, heartbeat = _build(seat, recipe, stack)
            seat.conn.send(("ready", None))
            _serve(seat, handlers, heartbeat)
        except BaseException:
            # The process boundary: nothing propagates further, so report
            # instead of re-raising.  Abort first -- it wakes any peer stuck
            # at the barrier -- then tell the parent, if it is still there.
            try:
                seat.barrier.abort()
            except Exception:  # pragma: no cover - teardown best effort
                pass
            try:
                seat.conn.send(("error", traceback.format_exc()))
            except OSError:
                pass
        finally:
            set_tracer(None)
            try:
                seat.conn.close()
            except OSError:  # pragma: no cover
                pass
