"""repro.train: the unified Experiment/Trainer API.

One experiment is one :class:`~repro.train.spec.RunSpec` -- a plain-data
description of model, data, optimizer, update strategy, precision,
parallelism and schedule that round-trips to JSON.  Component names
resolve through string-keyed tables (:mod:`repro.train.registry`);
:func:`make_trainer` (``Trainer.from_spec``) turns a spec into the one
:class:`Trainer`, whose callback-instrumented loop runs over whichever
:class:`~repro.exec.executor.RankExecutor` the spec's parallel section
asks for (single model, inline ranks, process ranks); and
:mod:`repro.train.checkpoint` persists the whole training state to
``.npz`` with bit-identical resume (the Split-BF16 lo/hi halves and all
optimizer state included).

>>> spec = RunSpec.from_dict({"model": {"config": "small", "rows_cap": 500,
...                                     "minibatch": 32}})
>>> trainer = make_trainer(spec).fit(5)
>>> trainer.save_checkpoint("run.npz")          # doctest: +SKIP
"""

from repro.train.callbacks import MetricLogger
from repro.train.checkpoint import load_checkpoint
from repro.train.spec import RunSpec
from repro.train.trainer import Trainer, make_trainer

__all__ = [
    "MetricLogger",
    "RunSpec",
    "Trainer",
    "load_checkpoint",
    "make_trainer",
]
