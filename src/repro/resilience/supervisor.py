"""Supervised training: catch typed worker failures, respawn, replay.

:class:`Supervisor` wraps the ordinary trainer loop in a restart loop::

    build trainer -> fit
      on WorkerCrash/WorkerTimeout/InjectedFault/... (any RuntimeError):
        record a recovery event (typed diagnostics, wall time)
        close the dead executor (aborts the barrier, reaps workers,
        releases every shared-memory block)
        disarm the fault plan through the failure step
        rebuild, restore from the newest good checkpoint-ring entry
        fit the remaining budget

Recovery is *lossless*: batches are pure functions of
``(seed, batch_index)`` and ring checkpoints are bit-exact, so the
replayed steps recompute the identical losses and the finished run's
weights, optimizer state and loss stream are bitwise equal to an
uninterrupted run's (pinned by ``tests/resilience/test_supervisor``).
Each attempt's completed-step losses are merged by *global* step index,
so the report's loss stream is the fault-free stream even though some
steps ran twice.

Recovery events surface as ``repro.obs`` spans (``resilience.attempt``,
``resilience.recover``) when tracing is on, land in
:attr:`SupervisorReport.events`, and can be exported as JSONL for CI
artifacts (:meth:`SupervisorReport.write_events`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.tracer import trace
from repro.resilience.errors import WorkerFailure
from repro.resilience.faults import FaultPlan
from repro.resilience.ring import CheckpointRing
from repro.train.spec import RunSpec
from repro.train.trainer import Trainer, _spec_faults


@dataclass
class SupervisorReport:
    """What a supervised run did: the merged loss stream, every recovery
    event, and where the final ring checkpoint lives."""

    losses: list[float]
    restarts: int
    events: list[dict[str, Any]] = field(default_factory=list)
    final_step: int = 0
    checkpoint: str | None = None

    def write_events(self, path: str | Path) -> Path:
        """Dump recovery events as JSONL (one event per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event) + "\n")
        return path


class Supervisor:
    """Run a spec to completion across worker failures.

    ``backend``/``workers`` override the spec's execution substrate
    (exactly like ``Trainer.from_spec``); ``max_restarts``
    defaults to the spec's ``resilience.max_restarts``.  The fault plan
    comes from ``spec.resilience.faults`` unless ``faults`` overrides
    it.  Requires ``resilience.ring_every > 0`` for checkpointed
    recovery; without a ring, recovery restarts from step 0 (still
    lossless, just slower).
    """

    def __init__(
        self,
        spec: RunSpec,
        backend: str | None = None,
        workers: int | None = None,
        max_restarts: int | None = None,
        faults: FaultPlan | None = None,
    ):
        self.spec = spec
        self.backend = backend
        self.workers = workers
        res = spec.resilience
        self.max_restarts = (
            max_restarts if max_restarts is not None else res.max_restarts
        )
        self.plan = faults if faults is not None else (_spec_faults(spec) or FaultPlan())
        ring_dir = res.ring_dir or f"checkpoints/{spec.name}-ring"
        self.ring = CheckpointRing(ring_dir, keep=res.ring_keep)
        self.events: list[dict[str, Any]] = []
        #: The final (successful) trainer; stays open so callers can
        #: evaluate/serve from it.  Callers own close().
        self.trainer: Trainer | None = None

    # -- events --------------------------------------------------------------

    def _event(self, kind: str, **data: Any) -> None:
        self.events.append({"event": kind, "time": time.time(), **data})

    # -- building ------------------------------------------------------------

    def _build(self, restart: int) -> Trainer:
        trainer = Trainer.from_spec(
            self.spec, backend=self.backend, workers=self.workers, faults=self.plan
        )
        if restart:
            entry = self.ring.load_latest()
            if entry is not None:
                ckpt, path = entry
                trainer.load_checkpoint(ckpt)
                self._event("restore", restart=restart, step=ckpt.step, path=str(path))
            else:
                self._event("restore", restart=restart, step=0, path=None)
        return trainer

    # -- the restart loop ----------------------------------------------------

    def run(self) -> SupervisorReport:
        """Train the spec's full budget, recovering from failures;
        raises the last failure once ``max_restarts`` is exhausted."""
        losses: dict[int, float] = {}
        restarts = 0
        while True:
            trainer = self._build(restarts)
            start = trainer.step
            try:
                with trace("resilience.attempt", restart=restarts, start=start):
                    trainer.fit()
            except RuntimeError as exc:
                failed_step = trainer.step
                diag = (
                    exc.diagnostics()
                    if isinstance(exc, WorkerFailure)
                    else {"error": type(exc).__name__, "message": str(exc)}
                )
                self._event(
                    "failure", restart=restarts, step=failed_step, **diag
                )
                # Completed steps of this attempt are final: replay will
                # recompute the same bits, so merging by global step is
                # safe (and pinned by test).
                for i, loss in enumerate(trainer.losses):
                    losses[start + i] = loss
                with trace("resilience.recover", restart=restarts, step=failed_step):
                    trainer.close()
                    if restarts >= self.max_restarts:
                        self._event("gave_up", restart=restarts, step=failed_step)
                        raise
                    disarmed = self.plan.disarm_through(failed_step)
                    self._event(
                        "respawn",
                        restart=restarts,
                        step=failed_step,
                        disarmed=disarmed,
                    )
                restarts += 1
                continue
            for i, loss in enumerate(trainer.losses):
                losses[start + i] = loss
            self.trainer = trainer
            break
        entries = self.ring.entries()
        report = SupervisorReport(
            losses=[losses[s] for s in sorted(losses)],
            restarts=restarts,
            events=list(self.events),
            final_step=trainer.step,
            checkpoint=str(entries[-1]) if entries else None,
        )
        return report
