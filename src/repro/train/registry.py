"""String-keyed component registries: the extension points of ``repro.train``.

Every pluggable piece of the experiment API -- optimizers, sparse update
strategies, datasets and learning-rate schedules -- is reachable through a
:class:`Registry`, so a :class:`~repro.train.spec.RunSpec` can name
components by string and third-party code can add its own without
touching this package::

    from repro.train import OPTIMIZERS

    @OPTIMIZERS.register("lars")
    def make_lars(lr, strategy=None, **kw):
        return MyLARS(lr, strategy, **kw)

    spec = RunSpec.from_dict({..., "optimizer": {"name": "lars", "lr": 0.1}})

The registries replace the ad-hoc ``make_strategy``-style lookups the
seed spread across modules; :func:`repro.core.update.make_strategy` is a
look-up in :data:`UPDATE_STRATEGIES`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.core.optim import SGD, MasterWeightSGD, SparseAdagrad, SplitSGD
from repro.core.schedule import WarmupDecaySchedule
from repro.core.update import (
    AtomicXchgUpdate,
    FusedBackwardUpdate,
    RaceFreeUpdate,
    ReferenceUpdate,
    RTMUpdate,
    UpdateStrategy,
)
from repro.data.criteo import SyntheticCriteoDataset
from repro.data.synthetic import RandomRecDataset


class Registry:
    """A named string -> factory mapping with decorator registration."""

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: dict[str, Callable[..., Any]] = {}

    def register(
        self, name: str, factory: Callable[..., Any] | None = None, *, override: bool = False
    ) -> Callable[..., Any]:
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering an existing name raises unless ``override=True``
        (a typo silently shadowing a builtin is worse than an error).
        """
        if factory is None:
            def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
                self.register(name, fn, override=override)
                return fn

            return deco
        if not override and name in self._factories:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._factories[name] = factory
        return factory

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name``."""
        try:
            return self._factories[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None

    def create(self, name: str, **kwargs: Any) -> Any:
        """Instantiate the component registered under ``name``."""
        return self.get(name)(**kwargs)

    def names(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()})"


#: Optimizers: ``factory(lr, strategy=None, **kwargs) -> SGD``.
OPTIMIZERS = Registry("optimizer")
OPTIMIZERS.register("sgd", SGD)
OPTIMIZERS.register("split_sgd", SplitSGD)
OPTIMIZERS.register("adagrad", SparseAdagrad)
OPTIMIZERS.register("master_weight", MasterWeightSGD)

#: Sparse update strategies (paper Sect. III-A), by cost key:
#: ``factory(threads=28)``.  The one strategy table.
UPDATE_STRATEGIES = Registry("update strategy")


def _strategy_factory(cls: type[UpdateStrategy]) -> Callable[..., UpdateStrategy]:
    threaded = issubclass(cls, FusedBackwardUpdate)

    def make(threads: int = 28) -> UpdateStrategy:
        return cls(threads) if threaded else cls()

    return make


for _cls in (ReferenceUpdate, AtomicXchgUpdate, RTMUpdate, RaceFreeUpdate, FusedBackwardUpdate):
    UPDATE_STRATEGIES.register(_cls.cost_key, _strategy_factory(_cls))

#: Datasets: ``factory(cfg, seed=0, **kwargs) -> RandomRecDataset``.
DATASETS = Registry("dataset")
DATASETS.register("random", RandomRecDataset)
DATASETS.register("criteo", SyntheticCriteoDataset)

#: Learning-rate schedules: ``factory(**kwargs)`` with an ``lr_at(step)``.
LR_SCHEDULES = Registry("lr schedule")
LR_SCHEDULES.register("warmup_decay", WarmupDecaySchedule)
