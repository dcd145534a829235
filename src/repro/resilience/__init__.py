"""Fault injection, typed failures, durable checkpoints (``repro.resilience``).

The package turns "a worker died" from a run-killing event into a
handled one, and makes the failure modes themselves injectable so the
handling is testable:

* :mod:`~repro.resilience.faults` -- ``FaultPlan`` /
  ``FaultPoint``: deterministic failures (kill/hang/raise/delay/
  torn_write/corrupt/die/slow) at named sites threaded through
  :mod:`repro.exec.mp`, the trainer, checkpointing and serving.
* :mod:`~repro.resilience.errors` -- the typed failure taxonomy
  (``WorkerTimeout``, ``WorkerCrash``, ``CheckpointCorrupt``, ...),
  all ``RuntimeError`` subclasses.
* :mod:`~repro.resilience.heartbeat` -- shared-memory worker liveness
  stamps, piggybacked on mailbox rounds.
* :mod:`~repro.resilience.ring` -- the retained checkpoint ring with
  CRC-verified loads and automatic fallback past corruption.

The restart loop itself is :meth:`repro.train.trainer.Trainer.fit`'s:
with ``resilience.max_restarts > 0`` it catches a failed step, respawns
the executor, restores from the ring and replays to the failure step.
Because every batch is a pure function of ``(seed, batch_index)`` and
checkpoints are bit-exact, recovery is *lossless by construction* -- a
restarted run's losses and final state are bitwise identical to a
fault-free run's, which ``tests/resilience`` pins.
"""

#: The envelope of a recovery-event JSONL (``repro train --events-jsonl``,
#: ``benchmarks/chaos_smoke.py``), read and written through
#: :mod:`repro.obs.export`'s versioned-JSONL helpers.
EVENTS_KIND = "repro-recovery-events"
EVENTS_SCHEMA = 1
