"""repro.tune: self-tuning RunSpec search (``repro tune``).

A successive-halving autotuner over the RunSpec configuration space --
execution backend and pool width, batch size, prefetch depth, gradient
bucket size, precision, embedding tiering -- scored by *measured* short
runs through the production trainer (or, in serve mode, the serving
simulator's p99/QPS SLA frontier).  The pieces:

* :mod:`~repro.tune.space` -- which knobs exist, their ordered values,
  coupled expansions, seeded sampling and single-step mutation;
* :mod:`~repro.tune.priors` -- cost-model predictions that prune the
  candidate pool and explain arms under deterministic scoring;
* :mod:`~repro.tune.trial` -- one short real run per arm: warmup,
  timed window, span drain, unconditional teardown; crashes score as
  failed arms;
* :mod:`~repro.tune.bottleneck` -- dominant-stage attribution and the
  knob-step hints that steer mutation;
* :mod:`~repro.tune.tuner` -- the successive-halving race itself, with
  a protected all-defaults baseline;
* :mod:`~repro.tune.report` -- the ``TUNE_SCHEMA``-versioned JSONL
  artifact.

Determinism contract: with ``measure="virtual"`` (the default) the
entire search -- arm pool, scores, elimination order, winner -- is a
pure function of ``(base spec, budget, seed)``.  ``measure="wall"``
ranks by wall-clock instead and is machine-local by design.
"""
