"""Process-rank execution backend over POSIX shared memory (``repro.exec.mp``).

The thread backend (:mod:`repro.exec.pool`) extracts parallelism only
from NumPy kernels that release the GIL; every Python-level step of a
rank still serialises.  The process backend is the paper's actual
recipe -- process ranks on dedicated cores talking through a
shared-memory transport -- in four modules: :mod:`repro.exec.shm` (one
shared-memory lifecycle; arena, mailbox and heartbeat board on it),
:mod:`repro.exec.transport` (the workers' mailbox exchange and the SPMD
rank pool that keeps every reduction in sequential order),
:mod:`repro.exec.worker` (the worker process) and this one:
:class:`ProcessRankExecutor`, the parent's handle on the fleet, and the
nested-use guard :func:`in_worker_process`.

The parent *commands* each worker over a pipe and every reply (losses,
clocks, predictions, drained trace spans) comes back on it; *state* (one
arena per rank, model and optimizer under key prefixes) and *phase
payloads* (one mailbox per worker) sit in shared memory both sides
address directly, so no weight tensor is ever pickled.  Losses,
consolidated checkpoints and virtual clocks are bitwise those of the
sequential and thread paths, in FP32 and Split-BF16, at any worker count
(``tests/train/test_process_trainer``).

Failure semantics (:mod:`repro.resilience`): workers stamp a
:class:`~repro.resilience.heartbeat.HeartbeatBoard` from their command
loop and on each mailbox round; the parent's reply deadline polls in
one-second slices watching process liveness and raises typed
:class:`~repro.resilience.errors.WorkerCrash` /
:class:`~repro.resilience.errors.WorkerTimeout` errors carrying worker
index, rank range, heartbeat age and exit code -- what a supervisor
needs to respawn and replay.  A failed round trip closes the executor
(workers stopped or reaped, every segment unlinked), as does an
:func:`atexit` hook.  A :class:`~repro.resilience.faults.FaultPlan` in
the recipe arms deterministic chaos at ``worker.step`` /
``comm.exchange`` / ``mailbox.publish``; with none, each hook is a
None-check.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import time
from typing import Any

import numpy as np

from repro.exec.shm import MAILBOX_ENV, ShmArena, ShmBlock, ShmMailbox
from repro.exec.worker import MODEL, OPT, WORKER_ENV, ProcessRecipe, WorkerSeat, worker_main
from repro.kernels.threads import static_partition
from repro.obs.aggregate import merge_spans
from repro.obs.tracer import enabled as trace_enabled
from repro.parallel.hybrid import consolidate_state
from repro.resilience.errors import WorkerCrash, WorkerTimeout
from repro.resilience.heartbeat import HeartbeatBoard

#: Parent <-> worker reply deadline (seconds) when the executor is given
#: none (a spec's ``resilience.heartbeat_timeout``).
_DEFAULT_TIMEOUT = 600.0

#: Spawn method: "spawn" is the safe, portable default (macOS/Windows
#: semantics); "fork" starts much faster on Linux and accepts
#: unpicklable factories, at fork's usual caveats.
_CONTEXT_ENV = "REPRO_MP_CONTEXT"


def in_worker_process() -> bool:
    """True inside a process-rank worker (the nested-use guard: callers
    should fall back to the thread backend rather than spawn from a
    worker, mirroring ``WorkerPool.effective_workers``)."""
    return bool(os.environ.get(WORKER_ENV))


def _env_int(name: str) -> int | None:
    """``int(os.environ[name])``, or None when unset or blank."""
    env = os.environ.get(name, "").strip()
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {env!r}") from None


#: Live executors, closed at interpreter exit (a worker clears its
#: inherited copy: the fleet is the parent's to stop).
_EXECUTORS: "set[ProcessRankExecutor]" = set()


@atexit.register
def _shutdown_all() -> None:
    for executor in list(_EXECUTORS):
        executor.close()


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
        #: Reply deadline of every parent <-> worker round trip.
        self._timeout = timeout
        # The environment is read before anything is allocated: a typo
        # there must not leave shared memory behind.
        mailbox_mb = _env_int(MAILBOX_ENV)
        self.dist = dist
        self.model = dist.models[0]
        self.optimizer = dist.optimizers[0]
        self.dataset = dataset
        self.batch_size = batch_size
        n_ranks = dist.cluster.n_ranks
        # Like the thread pool's helpers, the worker count is capped at the
        # host's cores: oversubscribing a small box only adds scheduling and
        # transport overhead, and results are bitwise identical at any
        # width (fixed-order reduction).
        requested = workers if workers is not None else n_ranks
        self.n_workers = max(1, min(requested, n_ranks, os.cpu_count() or n_ranks))
        ctx = mp.get_context(os.environ.get(_CONTEXT_ENV, "spawn"))
        self._closed = False
        self._procs: list[mp.process.BaseProcess] = []
        self._conns: list[Any] = []
        #: Every segment this executor created, for teardown; the arenas
        #: (one per rank) and the heartbeat board are also used by name.
        self._blocks: list[ShmBlock] = []
        self._arenas: list[ShmArena] = []
        self._heartbeats = None
        self._barrier = None
        #: Captured once: workers install a tracer iff the parent had one
        #: at build time (the global switch is per process).
        self._trace = trace_enabled()

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
        #: Worker -> (lo, hi) rank range, kept for failure diagnostics.
        self._ranges: list[tuple[int, int]] = [
            tuple(r) for r in static_partition(n_ranks, self.n_workers)
        ]
        if mailbox_mb is not None:
            capacity = max(1, mailbox_mb) << 20
        else:
            capacity = self._mailbox_capacity(dist, batch_size, eval_size_hint, self._ranges)

        def create(kind: type, tag: str, *spec: Any):
            block = kind.create_unique(tag, *spec)
            self._blocks.append(block)
            return block

        try:
            for r, (model, opt) in enumerate(zip(dist.models, dist.optimizers)):
                state = {MODEL + k: v for k, v in model.state_dict().items()}
                opt_state = opt.state_dict(model.parameters(), model.tables)
                state.update((OPT + k, v) for k, v in opt_state.items())
                self._arenas.append(create(ShmArena, f"a{r}", ShmArena.layout_for(state)))
            mailbox_names = []
            if self.n_workers > 1:
                mailbox_names = [
                    create(ShmMailbox, f"b{i}", capacity).name for i in range(self.n_workers)
                ]
            self._heartbeats = create(HeartbeatBoard, "h", self.n_workers)
            self._barrier = ctx.Barrier(self.n_workers)
            arenas = [(arena.name, arena.layout) for arena in self._arenas]
            for i, rank_range in enumerate(self._ranges):
                parent_conn, child_conn = ctx.Pipe()
                seat = WorkerSeat(
                    index=i,
                    n_workers=self.n_workers,
                    rank_range=rank_range,
                    conn=child_conn,
                    barrier=self._barrier,
                    mailbox_names=mailbox_names,
                    arenas=arenas,
                    heartbeat_name=self._heartbeats.name,
                )
                # Recipe first: it is most of what start() pickles and a third
                # smaller with the early (short) memo ids.  Past the pipe's
                # capacity start() blocks and the workers boot one by one.
                proc = ctx.Process(
                    target=worker_main, args=(recipe, seat), daemon=True, name=f"repro-mp-{i}"
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            for i in range(self.n_workers):
                self._expect_ok(i, "worker startup")
        except BaseException:
            self.close()
            raise
        _EXECUTORS.add(self)

    # -- sizing ------------------------------------------------------------

    @staticmethod
    def _mailbox_capacity(
        dist, batch_size: int, eval_size_hint: int, ranges: list[tuple[int, int]]
    ) -> int:
        cfg = dist.cfg
        n = max(batch_size, eval_size_hint)
        dense = sum(p.nbytes for p in dist.models[0].parameters())
        emb = cfg.num_tables * n * cfg.embedding_dim * 4
        per_rank = 2 * emb + dense + (1 << 20)
        ranks_per_worker = max(hi - lo for lo, hi in ranges)
        return per_rank * ranks_per_worker + (1 << 20)

    # -- command plumbing ----------------------------------------------------

    def _diag(self, worker: int) -> dict[str, Any]:
        """Typed-error ingredients for ``worker``."""
        return {
            "worker_index": worker,
            "rank_range": self._ranges[worker],
            "alive": self._procs[worker].is_alive(),
            "heartbeat_age": self._heartbeats.age_s(worker),
        }

    def _expect_ok(self, worker: int, what: str):
        """Await ``worker``'s reply, polling in one-second slices so a
        *peer's* sudden death (which leaves this worker stuck at the
        barrier) surfaces as a fast typed :class:`WorkerCrash` instead
        of a full reply-deadline stall."""
        conn = self._conns[worker]
        timeout = self._timeout
        deadline = time.monotonic() + timeout
        try:
            while not conn.poll(min(1.0, max(0.0, deadline - time.monotonic()))):
                for dead, proc in enumerate(self._procs):
                    if not proc.is_alive() and not self._conns[dead].poll(0):
                        raise WorkerCrash(
                            f"{what}: worker {dead} died without a reply "
                            f"(exit code {proc.exitcode})",
                            **self._diag(dead),
                        )
                if time.monotonic() >= deadline:
                    diag = self._diag(worker)
                    age = diag["heartbeat_age"]
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
        """Send ``msg`` to every worker, then collect every reply; any
        failure closes the executor before it propagates."""
        if self._closed:
            raise RuntimeError("executor is closed")
        for conn in self._conns:
            try:
                conn.send(msg)
            except OSError:
                pass  # a dead worker: its missing reply is the typed report
        try:
            return [self._expect_ok(i, what) for i in range(len(self._conns))]
        except RuntimeError:
            self.close()
            raise

    def _agreed(self, replies: list[Any], what: str) -> Any:
        """The one reply every worker gave.  The orchestration is
        replicated, so anything else means the replicas diverged."""
        first = replies[0]
        nan = first != first
        if any(r != first and not (nan and r != r) for r in replies[1:]):
            self.close()
            raise RuntimeError(f"process ranks diverged: per-worker {what} {replies} differ")
        return first

    # -- the public surface --------------------------------------------------

    def step(self, index: int, lr: float | None) -> float:
        """One global SGD step on batch ``index``; returns the loss.
        Workers synthesize the batch themselves: only the index and the
        scheduled ``lr`` (None = keep the optimizers' own) cross the pipe."""
        lr = None if lr is None else float(lr)
        return self._agreed(self._roundtrip(("step", int(index), lr), "train step"), "losses")

    def predict(self, batch) -> np.ndarray:
        """Click probabilities via the distributed forward path."""
        return self._roundtrip(("predict", batch), "predict")[0]

    def state_dicts(self, copy: bool = True) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """(model_state, opt_state): the workers mirror their live rank
        state into the arenas, which are consolidated exactly like
        ``DistributedDLRM.state_dict``/``optimizer_state_dict`` and
        copied out of shared memory (``copy=False``: the arena views)."""
        def consolidated(prefix: str) -> dict[str, np.ndarray]:
            views = consolidate_state([a.views(prefix) for a in self._arenas], self.dist.owners)
            return {key: np.array(view, copy=copy) for key, view in views.items()}

        self._roundtrip(("sync_state",), "state sync")
        return consolidated(MODEL), consolidated(OPT)

    def load_state(
        self,
        model_state: dict[str, np.ndarray],
        opt_state: dict[str, np.ndarray] | None = None,
    ) -> None:
        """Restore a consolidated checkpoint into the live workers
        (without ``opt_state`` their optimizer state is left alone)."""
        for arena in self._arenas:
            arena.write(model_state, MODEL)
            if opt_state:
                arena.write(opt_state, OPT)
        self._roundtrip(("load_state", bool(opt_state)), "state load")

    def clocks(self) -> list[float]:
        """Every rank's virtual-clock time, from the workers' replicas
        (identical in all of them after each phase sync; the bitwise
        match with the sequential cluster is pinned by tests)."""
        return self._agreed(self._roundtrip(("clocks",), "clock snapshot"), "clocks")

    def drain_traces(self) -> list[dict[str, Any]]:
        """Every worker's tracer spans since the last drain, merged into
        one timeline (``perf_counter_ns`` is machine-wide, so worker
        timestamps are directly comparable with the parent's).  Each
        worker replies with its spans on the command pipe, so a drain
        has no size limit.  Returns ``[]`` when tracing was off at
        executor build, or after :meth:`close`.
        """
        if not self._trace or self._closed:
            return []
        return merge_spans(*self._roundtrip(("trace",), "trace drain"))

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
        for block in self._blocks:
            block.close()
            block.unlink()
        self._blocks = []
        self._arenas = []
        self._heartbeats = None
