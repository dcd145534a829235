"""Fault injection, supervised recovery, durable checkpoints (``repro.resilience``).

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
* :mod:`~repro.resilience.supervisor` -- the restart loop: catch a
  typed worker failure, respawn, restore from the ring, replay to the
  failure step bit-exactly.

Because every batch is a pure function of ``(seed, batch_index)`` and
checkpoints are bit-exact, recovery here is *lossless by construction*
-- a supervised run's losses and final state are bitwise identical to a
fault-free run's, which ``tests/resilience`` pins.
"""
