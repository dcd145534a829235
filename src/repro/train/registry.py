"""String-keyed component tables of ``repro.train``.

Every named piece of the experiment API -- optimizers, sparse update
strategies, datasets and learning-rate schedules -- is a plain
``{name: factory}`` dict here, so a :class:`~repro.train.spec.RunSpec`
can name components by string; :func:`create` looks one up and builds
it.  :func:`repro.core.update.make_strategy` is a look-up in
:data:`UPDATE_STRATEGIES`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Mapping

from repro.core.optim import SGD, MasterWeightSGD, SparseAdagrad, SplitSGD
from repro.core.schedule import WarmupDecaySchedule
from repro.core.update import FusedBackwardUpdate, UpdateStrategy
from repro.data.criteo import SyntheticCriteoDataset
from repro.data.synthetic import RandomRecDataset


def create(table: Mapping[str, Callable[..., Any]], kind: str, name: str, **kwargs: Any) -> Any:
    """Build the ``kind`` component ``table`` holds under ``name``."""
    try:
        factory = table[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {name!r}; registered: {sorted(table)}") from None
    return factory(**kwargs)


#: Optimizers: ``factory(lr, strategy=None, **kwargs) -> SGD``.
OPTIMIZERS: dict[str, Callable[..., Any]] = {
    "sgd": SGD,
    "split_sgd": SplitSGD,
    "adagrad": SparseAdagrad,
    "master_weight": MasterWeightSGD,
}


#: Sparse update strategies (paper Sect. III-A), by cost key:
#: ``factory()``.  The one strategy table: ``racefree`` and ``fused``
#: take bag-level gradients, the rest the materialised ones.
UPDATE_STRATEGIES: dict[str, Callable[..., Any]] = {
    "reference": partial(UpdateStrategy, "reference"),
    "atomic": partial(UpdateStrategy, "atomic"),
    "rtm": partial(UpdateStrategy, "rtm"),
    "racefree": partial(FusedBackwardUpdate, "racefree"),
    "fused": partial(FusedBackwardUpdate, "fused"),
}

#: Datasets: ``factory(cfg, seed=0, **kwargs) -> RandomRecDataset``.
DATASETS: dict[str, Callable[..., Any]] = {
    "random": RandomRecDataset,
    "criteo": SyntheticCriteoDataset,
}

#: Learning-rate schedules: ``factory(**kwargs)`` with an ``lr_at(step)``.
LR_SCHEDULES: dict[str, Callable[..., Any]] = {"warmup_decay": WarmupDecaySchedule}
