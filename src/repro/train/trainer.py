"""Trainer: the one training loop every scenario shares.

The paper runs one SPMD program on one socket and on 64; this module
runs one loop.  :class:`Trainer` owns the schedule -- draw batch index
``step``, train on it, fire callbacks -- the step counter and checkpoint
file I/O, and delegates everything backend-specific to a
:class:`~repro.exec.executor.RankExecutor`: a single model in this
process, every rank of a hybrid-parallel model in this process, or rank
ranges in worker processes.  Because datasets are pure functions of
``(seed, batch_index)`` and the step counter is saved in every
checkpoint, *resume is bit-identical*: training N steps equals training
k, checkpointing, restoring and training N-k -- under any executor, and
across them (``tests/train/test_checkpoint.py``,
``test_process_trainer.py``).

Build one three ways::

    Trainer.from_spec(spec)                      # from a RunSpec
    Trainer.from_checkpoint("run.npz")           # resume a file
    Trainer(LocalExecutor(model, opt, dataset))  # objects you made

(:func:`make_trainer` is ``Trainer.from_spec``.)  The optimizer must
already be ``register()``-ed when passing objects directly (``from_spec``
does it for you); registering twice would reset Split-SGD lo halves and
momentum state.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.batch import Batch
from repro.core.metrics import accuracy, log_loss, roc_auc
from repro.exec.executor import InlineRankExecutor, LocalExecutor, RankExecutor
from repro.exec.mp import ProcessRankExecutor, in_worker_process
from repro.obs.aggregate import merge_spans
from repro.obs.tracer import drain_current, trace
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM
from repro.train.callbacks import (
    Callback,
    CallbackList,
    EarlyStopping,
    LRScheduleCallback,
    MetricLogger,
    PeriodicEval,
)
from repro.train.checkpoint import Checkpoint, load_checkpoint, save_state
from repro.resilience.faults import FaultPlan
from repro.train.spec import RunSpec
from repro.tiering.planner import plan_from_spec
from repro.tiering.store import build_tiered

#: Execution substrates ``backend=`` selects -- distinct from the
#: *communication* backends of repro.comm.backend ("mpi"/"ccl"/"local"),
#: which model collective timing.
EXEC_BACKENDS = ("thread", "process")


def _spec_callbacks(spec: RunSpec) -> list[Callback]:
    """The callbacks a spec's schedule and resilience sections ask for,
    in dispatch order."""
    sched = spec.schedule
    cbs: list[Callback] = []
    lr_schedule = spec.build_lr_schedule()
    if lr_schedule is not None:
        cbs.append(LRScheduleCallback(lr_schedule))
    if sched.log_every:
        # Trainer.losses already records every step; the logger is only
        # attached when the spec asks for printed progress lines.
        cbs.append(MetricLogger(print_every=sched.log_every))
    if sched.eval_every:
        cbs.append(PeriodicEval(every=sched.eval_every))
    if sched.early_stop:
        cbs.append(EarlyStopping(**sched.early_stop))
    if spec.resilience.ring_every:
        from repro.resilience.ring import RingCheckpoint

        directory = spec.resilience.ring_dir or f"checkpoints/{spec.name}-ring"
        cbs.append(
            RingCheckpoint(
                directory,
                every=spec.resilience.ring_every,
                keep=spec.resilience.ring_keep,
            )
        )
    return cbs


def _spec_faults(spec: RunSpec) -> FaultPlan | None:
    """The spec's armed fault plan, or None (the common, zero-cost case)."""
    return FaultPlan.parse(spec.resilience.faults) if spec.resilience.faults else None


def _spec_executor(
    spec: RunSpec,
    backend: str | None,
    workers: int | None,
    faults: FaultPlan | None,
) -> RankExecutor:
    """Model, optimizer(s) and data from a RunSpec, behind the executor
    its parallel section (or the ``backend``/``workers`` overrides) asks
    for -- the one place that knows which executors exist."""
    cfg = spec.build_config()
    par = spec.parallel
    backend = backend if backend is not None else par.exec_backend
    if backend not in EXEC_BACKENDS:
        raise ValueError(f"backend must be one of {EXEC_BACKENDS}, got {backend!r}")
    batch_size = spec.train_batch_size(cfg)
    # What every executor takes after its model and data source.
    common = dict(
        batch_size=batch_size,
        workers=workers if workers is not None else par.exec_workers,
    )
    if par.ranks == 1:
        if backend == "process":
            raise ValueError(
                "backend 'process' needs parallel.ranks >= 2 (single-process "
                "runs have no ranks to place in workers)"
            )
        # The plan is a pure function of the spec, so resume, serving and
        # process-backend workers recompute the identical one.  Owners
        # are a distributed concern; here only the hot/cold plans apply,
        # and they come first: a tiered model is built on its file.
        plan = plan_from_spec(spec, cfg)
        model = build_tiered(
            lambda alloc: spec.build_model(cfg, slab_alloc=alloc),
            plan.plans if plan is not None else {},
            cold_dir=spec.tiering.cold_dir,
        )
        optimizer = spec.build_optimizer()
        optimizer.register(model.parameters())
        return LocalExecutor(model, optimizer, spec.build_dataset(cfg), **common)
    eval_size = spec.schedule.eval_size
    for what, n in (("global batch", batch_size), ("eval_size", eval_size)):
        if n % par.ranks:
            raise ValueError(f"{what} {n} not divisible by {par.ranks} ranks")
    cluster = SimCluster(par.ranks, platform=par.platform, backend=par.backend)
    plan = plan_from_spec(spec, cfg)
    placement: str | list[int] = par.placement
    tiering = None
    if plan is not None:
        # Frequency-informed owners supersede the blind `PLACEMENTS` entry;
        # the per-table hot/cold plans ride into the model (and, via
        # init_kwargs, to process-backend workers).
        placement = list(plan.owners)
        tiering = plan.plans if plan.tiered_tables else None
    dist = DistributedDLRM(
        cfg,
        cluster,
        seed=spec.model.seed,
        exchange=par.exchange,
        engine=spec.model.engine,
        storage=spec.precision.storage,
        lo_bits=spec.precision.lo_bits,
        placement=placement,
        bucket_mb=par.bucket_mb,
        tiering=tiering,
        tiering_cold_dir=spec.tiering.cold_dir,
    )
    dist.attach_optimizers(spec.build_optimizer)
    dataset = spec.build_dataset(cfg)
    # Inside a process-rank worker the process backend degrades to the
    # inline one (the nested-use guard).
    if backend == "process" and not in_worker_process():
        return ProcessRankExecutor(
            dist,
            dataset,
            eval_size_hint=eval_size,
            faults=faults,
            timeout=spec.resilience.heartbeat_timeout,
            **common,
        )
    return InlineRankExecutor(dist, dataset, **common)


class Trainer:
    """The experiment driver: one loop over a :class:`RankExecutor`.

    ``model`` is the live :class:`~repro.core.model.DLRM` (rank 0's
    replica when distributed) and ``dist`` the
    :class:`~repro.parallel.hybrid.DistributedDLRM` (None on a single
    rank); under the process backend both are the parent's layout
    template -- the workers hold the live state, reachable through
    :meth:`model_state_dict`/:meth:`save_checkpoint`.  Checkpoints are
    always *consolidated* in the single-process layout, so a file saved
    under one executor serves and resumes under any other.  Call
    :meth:`close` (or rely on the process backend's atexit teardown)
    when done.
    """

    def __init__(
        self,
        executor: RankExecutor,
        callbacks: Sequence[Callback] = (),
        spec: RunSpec | None = None,
        eval_size: int = 2048,
        eval_index: int = 10_000_000,
        faults: FaultPlan | None = None,
    ):
        self._executor = executor
        self.dataset = executor.dataset
        self.batch_size = executor.batch_size
        self.callbacks = CallbackList(list(callbacks))
        self.spec = spec
        #: Armed fault plan (chaos testing), or None -- the loop's only
        #: cost without one is a single attribute check per step.
        self.faults = faults
        self.eval_size = eval_size
        self.eval_index = eval_index
        #: Global step: batches consumed so far; the dataset index of the
        #: next batch.  Saved in checkpoints, restored on resume.
        self.step = 0
        #: The scheduled learning rate every optimizer takes at the next
        #: step (:class:`LRScheduleCallback` sets it); None leaves the
        #: optimizers' constructed or restored rate alone.
        self.lr: float | None = None
        self.losses: list[float] = []
        self.should_stop = False
        self.last_eval: dict[str, float] | None = None
        self._eval_batch: Batch | None = None

    model = property(lambda self: self._executor.model)
    dist = property(lambda self: self._executor.dist)
    optimizer = property(lambda self: self._executor.optimizer)
    backend = property(lambda self: self._executor.backend)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_spec(
        cls,
        spec: RunSpec,
        callbacks: Sequence[Callback] = (),
        backend: str | None = None,
        workers: int | None = None,
        faults: FaultPlan | None = None,
    ) -> "Trainer":
        """Build model, data, optimizer, executor and callbacks from a
        RunSpec.

        ``backend``/``workers`` override the spec's ``parallel.exec_backend``
        / ``exec_workers``.  ``faults`` overrides the spec's own fault
        plan -- the supervisor passes its (partially disarmed) plan here
        on respawn so replay does not re-fire a recovered failure.
        """
        faults = faults if faults is not None else _spec_faults(spec)
        return cls(
            _spec_executor(spec, backend, workers, faults),
            callbacks=[*_spec_callbacks(spec), *callbacks],
            spec=spec,
            eval_size=spec.schedule.eval_size,
            eval_index=spec.schedule.eval_index,
            faults=faults,
        )

    @classmethod
    def from_checkpoint(
        cls,
        ckpt: Checkpoint | str | Path,
        callbacks: Sequence[Callback] = (),
        backend: str | None = None,
        workers: int | None = None,
        faults: FaultPlan | None = None,
    ) -> "Trainer":
        """Resume from a checkpoint file or an already-loaded
        :class:`Checkpoint` (spec must be embedded)."""
        if not isinstance(ckpt, Checkpoint):
            ckpt = load_checkpoint(ckpt)
        trainer = cls.from_spec(
            ckpt.require_spec(), callbacks, backend=backend, workers=workers,
            faults=faults,
        )
        trainer.load_checkpoint(ckpt)
        return trainer

    # -- the loop ----------------------------------------------------------

    def fit(self, steps: int | None = None) -> "Trainer":
        """Train ``steps`` more steps (default: the spec's remaining budget).

        Callbacks fire in registration order; any of them may set
        ``should_stop``.  Returns ``self`` for chaining.
        """
        if steps is None:
            if self.spec is None:
                raise ValueError("steps is required when the trainer has no spec")
            steps = max(0, self.spec.schedule.steps - self.step)
        self.should_stop = False
        self.callbacks.on_fit_start(self)
        end = self.step + steps
        while self.step < end and not self.should_stop:
            step = self.step
            self.callbacks.on_step_start(self, step)
            if self.faults is not None:
                self.faults.fire("train.step", step=step)
            with trace("train.step", rows=self.batch_size):
                loss = self._executor.step(step, self.lr)
            self.losses.append(loss)
            self.step += 1
            self.callbacks.on_step_end(self, step, loss)
        self.callbacks.on_fit_end(self)
        return self

    # -- evaluation ----------------------------------------------------------

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Click probabilities; leaves all training state (pending
        activations, saved batch) untouched."""
        return self._executor.predict(batch)

    def eval_batch(self) -> Batch:
        """The held-out batch: a dataset index far past any training step."""
        if self._eval_batch is None:
            self._eval_batch = self.dataset.batch(self.eval_size, self.eval_index)
        return self._eval_batch

    def evaluate(self, batch: Batch | None = None) -> dict[str, float]:
        """Metrics on ``batch`` (default: the held-out eval batch)."""
        batch = batch if batch is not None else self.eval_batch()
        probs = self.predict_proba(batch)
        return {
            "eval_loss": log_loss(batch.labels, probs),
            "auc": roc_auc(batch.labels, probs),
            "accuracy": accuracy(batch.labels, probs),
        }

    def run_eval(self, step: int) -> dict[str, float]:
        """Evaluate, record as ``last_eval``, fire ``on_eval``."""
        metrics = self.evaluate()
        self.last_eval = metrics
        self.callbacks.on_eval(self, step, metrics)
        return metrics

    # -- checkpointing --------------------------------------------------------

    def model_state_dict(self) -> dict[str, np.ndarray]:
        """The live model weights, consolidated."""
        return self._executor.state_dicts()[0]

    def save_checkpoint(self, path: str | Path) -> None:
        """Write model + optimizer + step (+ spec) as one ``.npz``,
        straight from the live storage."""
        model_state, opt_state = self._executor.state_dicts(copy=False)
        save_state(path, model_state, opt_state, step=self.step, spec=self.spec)

    def load_checkpoint(self, ckpt: Checkpoint | str | Path) -> None:
        """Restore states and step into this trainer's live objects."""
        if not isinstance(ckpt, Checkpoint):
            ckpt = load_checkpoint(ckpt)
        self._executor.load_state(ckpt.model_state, ckpt.opt_state or None)
        self.step = ckpt.step

    def drain_trace_spans(self) -> list[dict]:
        """This process's tracer spans merged with the executor's (worker
        processes') into one timeline; empty when tracing is off.  Call
        before :meth:`close`."""
        return merge_spans(drain_current(), self._executor.drain_traces())

    def virtual_clock_s(self) -> float | None:
        """The slowest rank's simulated-cluster clock, in virtual
        seconds -- or None for single-rank runs (no cluster).

        This is the deterministic measurement surface ``repro.tune``
        scores trials on: virtual clocks are bit-identical across
        backends and worker counts, so the advance between two reads
        brackets a measured run reproducibly.
        """
        clocks = self._executor.clocks()
        return max(clocks) if clocks else None

    def close(self) -> None:
        """Release the executor's resources (worker processes, shared
        memory, a resized pool).  Idempotent."""
        self._executor.close()


#: Spec -> trainer; the historical name of :meth:`Trainer.from_spec`.
make_trainer = Trainer.from_spec
