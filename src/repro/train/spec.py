"""RunSpec: one experiment as data, round-trippable to JSON.

A :class:`RunSpec` composes everything a run needs -- model
configuration, data source, optimizer, sparse update strategy, numeric
precision, parallelism, and the training schedule -- as plain
dataclasses of plain values.  ``RunSpec.from_dict(spec.to_dict())``
is the identity, and ``to_json``/``from_json`` make every scenario a
config file::

    {
      "model":     {"config": "mlperf", "rows_cap": 2000, "seed": 5},
      "data":      {"name": "criteo", "seed": 0},
      "optimizer": {"name": "split_sgd", "lr": 0.15},
      "update":    {"name": "racefree"},
      "precision": {"storage": "split_bf16", "lo_bits": 16},
      "parallel":  {"ranks": 1},
      "schedule":  {"steps": 200, "eval_every": 50}
    }

Component names resolve through the registries of
:mod:`repro.train.registry`; the ``build_*`` methods turn the spec into
live objects.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.core.config import CONFIGS, DLRMConfig, get_config
from repro.core.mlp import ENGINES
from repro.core.model import DLRM
from repro.core.optim import SGD, SplitSGD
from repro.core.update import UpdateStrategy, make_strategy
from repro.train.registry import (
    DATASETS,
    LR_SCHEDULES,
    OPTIMIZERS,
    UPDATE_STRATEGIES,
    create,
)

#: Fields of DLRMConfig that JSON round-trips as lists but must be tuples.
_TUPLE_FIELDS = ("table_rows", "bottom_mlp", "top_mlp")

#: Keys that older specs and checkpoints hold but no field reads any
#: more, dropped on read by :meth:`RunSpec.from_dict`.  ``None`` drops
#: any value; a ``(default, successor)`` pair drops only the old default
#: and refuses any other value, naming the field that decides it now.
_RETIRED: dict[tuple[str, str], tuple[Any, str] | None] = {
    ("data", "prefetch_depth"): None,  # the look-ahead is one primed batch
    ("update", "threads"): None,  # never changed a result or a price
    ("schedule", "checkpoint_every"): (0, "resilience.ring_every"),
    ("schedule", "checkpoint_dir"): (None, "resilience.ring_dir"),
}


def _drop_retired(section: str, data: Any) -> Any:
    """``data`` without the retired keys of ``section`` (see :data:`_RETIRED`)."""
    if not isinstance(data, dict):
        return data
    for key, value in data.items():
        rule = _RETIRED.get((section, key))
        if rule is not None and value != rule[0]:
            raise ValueError(f"RunSpec.{section}.{key} is retired; set {rule[1]} (got {value!r})")
    return {k: v for k, v in data.items() if (section, k) not in _RETIRED}


def _from_mapping(cls: type, data: dict[str, Any], where: str) -> Any:
    """Build dataclass ``cls`` from ``data``, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise TypeError(f"{where}: expected a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}; known: {sorted(known)}")
    return cls(**data)


@dataclass(frozen=True)
class ModelSpec:
    """Which DLRM to build, and at what scale.

    ``config`` names a paper preset (Table I); ``overrides`` are applied
    with ``dataclasses.replace`` for custom topologies; ``rows_cap`` and
    ``minibatch`` are the common scaled-down-for-laptops knobs
    (``DLRMConfig.scaled_down``: global = 4x, local = x).
    """

    config: str = "small"
    rows_cap: int | None = None
    minibatch: int | None = None
    overrides: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    engine: str = "reference"

    def __post_init__(self) -> None:
        # Normalise sequence-valued overrides to tuples so a spec equals
        # its JSON round trip (JSON turns tuples into lists).
        fixed = {
            k: tuple(v) if k in _TUPLE_FIELDS else v
            for k, v in self.overrides.items()
        }
        object.__setattr__(self, "overrides", fixed)

    def build_config(self) -> DLRMConfig:
        cfg = get_config(self.config)
        if self.overrides:
            cfg = dataclasses.replace(cfg, **self.overrides)
        return cfg.scaled_down(self.rows_cap, self.minibatch)


@dataclass(frozen=True)
class DataSpec:
    """Data source: a name in :data:`~repro.train.registry.DATASETS`.

    Batches are pure functions of ``(seed, batch_index)``: every
    executor builds batch ``k+1`` during step ``k``
    (:mod:`repro.exec.prefetch`, per worker process under the process
    backend), bit-identical to synchronous synthesis -- only wall-clock
    moves.
    """

    name: str = "random"
    seed: int = 0
    kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class OptimizerSpec:
    """Optimizer: a name in :data:`~repro.train.registry.OPTIMIZERS`."""

    name: str = "sgd"
    lr: float = 0.05
    kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class UpdateSpec:
    """Sparse update strategy (paper Sect. III-A) by registry name."""

    name: str = "racefree"


@dataclass(frozen=True)
class PrecisionSpec:
    """Weight storage: FP32 or the paper's Split-BF16 (Sect. VII)."""

    storage: str = "fp32"
    lo_bits: int = 16


@dataclass(frozen=True)
class ParallelSpec:
    """Single-process (ranks=1) or hybrid-parallel on a SimCluster.

    ``backend`` is the modelled *communication* backend (mpi/ccl/local);
    ``exec_backend`` is the real execution substrate the trainer runs
    rank phases on (``thread`` = the process-wide worker pool,
    ``process`` = shared-memory worker processes, see
    :mod:`repro.exec.mp`), ``exec_workers`` wide or with that many
    processes (None = backend default).  ``bucket_mb`` caps the
    issue-as-ready gradient buckets of the MLP allreduce (MiB per
    bucket; smaller = more overlap, more per-collective overhead).
    Every combination trains bitwise identically; only wall-clock and
    virtual comm-overlap change.
    """

    ranks: int = 1
    platform: str = "node"
    backend: str = "ccl"
    exchange: str = "alltoall"
    placement: str = "round_robin"
    exec_backend: str = "thread"
    exec_workers: int | None = None
    bucket_mb: float = 4.0


@dataclass(frozen=True)
class TieringSpec:
    """Frequency-aware embedding tiering (:mod:`repro.tiering`).

    ``enabled`` turns on hot-first storage for tables the planner deems
    worth it: their rows are reordered so the pinned-hot ids form a
    contiguous prefix, and the model's embedding slab moves onto a file
    mapping.  Either this or ``placement="auto"`` triggers the planning
    pass, and a planned run takes the plan's owners, not the static
    ``placement``'s (``repro plan`` shows them).  ``hot_rows`` is the
    per-table pinned-hot row budget (the length of that prefix);
    ``coverage_threshold`` is the minimum fraction of profiled look-ups
    the hot set must absorb before a table is tiered; tables smaller than
    ``min_table_rows`` always stay flat.  ``profile_batches``
    deterministic dataset batches feed the frequency counters -- every
    process that holds the spec recomputes the identical plan, which is
    how resume and serving stay bit-exact without persisting it.
    ``cold_dir`` hosts the slab files, one per model (default: a
    per-process temp dir, removed with its last file).
    Tiering applies to FP32 storage only.
    """

    enabled: bool = False
    hot_rows: int = 8192
    coverage_threshold: float = 0.5
    min_table_rows: int = 2048
    profile_batches: int = 4
    cold_dir: str | None = None


@dataclass(frozen=True)
class ResilienceSpec:
    """Fault injection and supervised recovery (:mod:`repro.resilience`).

    ``faults`` is a fault-plan string (see
    :meth:`repro.resilience.faults.FaultPlan.parse`; empty = no injection and
    every hook stays a None-check).  ``supervise`` wraps the run in the
    restart loop: up to ``max_restarts`` respawn-restore-replay cycles
    after typed worker failures.  ``ring_every``/``ring_keep``/
    ``ring_dir`` configure the run's one periodic checkpoint: a save
    every ``ring_every`` steps and at fit end into a ring of the newest
    ``ring_keep`` files, which the supervisor restores from
    (``ring_every=0`` leaves it off; the supervisor then restarts failed
    runs from step 0).
    ``heartbeat_timeout`` is the reply deadline (seconds) the process
    executor enforces on every worker round trip.
    """

    faults: str = ""
    supervise: bool = False
    max_restarts: int = 2
    heartbeat_timeout: float = 600.0
    ring_dir: str | None = None
    ring_every: int = 0
    ring_keep: int = 3


@dataclass(frozen=True)
class ScheduleSpec:
    """How long to train and what to do along the way.

    ``batch_size`` defaults to the model config's minibatch (single
    process) or global minibatch (distributed).  ``lr_schedule`` names an
    entry of :data:`~repro.train.registry.LR_SCHEDULES` plus its kwargs,
    e.g. ``{"name": "warmup_decay", "peak_lr": 0.2, "warmup_steps": 10}``.
    ``early_stop`` configures the early-stopping callback, e.g.
    ``{"monitor": "auc", "patience": 3, "min_delta": 0.0}``.
    """

    steps: int = 100
    batch_size: int | None = None
    eval_every: int = 0
    eval_size: int = 2048
    eval_index: int = 10_000_000
    log_every: int = 0
    lr_schedule: dict[str, Any] | None = None
    early_stop: dict[str, Any] | None = None


@dataclass(frozen=True)
class RunSpec:
    """A complete experiment: the unit the Trainer, CLI and checkpoints share."""

    name: str = "run"
    model: ModelSpec = field(default_factory=ModelSpec)
    data: DataSpec = field(default_factory=DataSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    update: UpdateSpec = field(default_factory=UpdateSpec)
    precision: PrecisionSpec = field(default_factory=PrecisionSpec)
    parallel: ParallelSpec = field(default_factory=ParallelSpec)
    tiering: TieringSpec = field(default_factory=TieringSpec)
    resilience: ResilienceSpec = field(default_factory=ResilienceSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Cross-field consistency; raises ValueError on a bad spec."""
        if self.model.config not in CONFIGS:
            raise ValueError(
                f"model.config must name a paper preset {sorted(CONFIGS)}, "
                f"got {self.model.config!r}"
            )
        if self.model.engine not in ENGINES:
            raise ValueError(
                f"model.engine must be one of {ENGINES}, got {self.model.engine!r}"
            )
        if self.optimizer.name not in OPTIMIZERS:
            raise ValueError(
                f"optimizer.name {self.optimizer.name!r} not registered; "
                f"have {sorted(OPTIMIZERS)}"
            )
        if self.data.name not in DATASETS:
            raise ValueError(
                f"data.name {self.data.name!r} not registered; have {sorted(DATASETS)}"
            )
        if self.update.name not in UPDATE_STRATEGIES:
            raise ValueError(
                f"update.name {self.update.name!r} not registered; "
                f"have {sorted(UPDATE_STRATEGIES)}"
            )
        if self.precision.storage not in ("fp32", "split_bf16"):
            raise ValueError(
                f"precision.storage must be fp32 or split_bf16, "
                f"got {self.precision.storage!r}"
            )
        if not 0 <= self.precision.lo_bits <= 16:
            raise ValueError("precision.lo_bits must be in [0, 16]")
        split_storage = self.precision.storage == "split_bf16"
        split_opt = self.optimizer.name == "split_sgd"
        if split_storage != split_opt:
            raise ValueError(
                "Split-BF16 storage and the split_sgd optimizer imply each "
                f"other (storage={self.precision.storage!r}, "
                f"optimizer={self.optimizer.name!r}); the lo halves live on "
                "both sides of the model/optimizer boundary"
            )
        if self.parallel.ranks < 1:
            raise ValueError("parallel.ranks must be >= 1")
        from repro.parallel.placement import PLACEMENTS

        if (
            isinstance(self.parallel.placement, str)
            and self.parallel.placement not in PLACEMENTS
        ):
            raise ValueError(
                f"parallel.placement {self.parallel.placement!r} not "
                f"registered; have {sorted(PLACEMENTS)}"
            )
        if self.parallel.exec_backend not in ("thread", "process"):
            raise ValueError(
                f"parallel.exec_backend must be 'thread' or 'process', "
                f"got {self.parallel.exec_backend!r}"
            )
        if self.parallel.exec_workers is not None and self.parallel.exec_workers < 1:
            raise ValueError("parallel.exec_workers must be >= 1 (or null)")
        if self.parallel.bucket_mb <= 0:
            raise ValueError("parallel.bucket_mb must be positive")
        if self.parallel.exec_backend == "process" and self.parallel.ranks < 2:
            raise ValueError(
                "parallel.exec_backend='process' needs parallel.ranks >= 2 "
                "(single-process runs have no ranks to place in workers)"
            )
        if self.tiering.hot_rows < 0:
            raise ValueError("tiering.hot_rows must be non-negative")
        if not 0.0 <= self.tiering.coverage_threshold <= 1.0:
            raise ValueError("tiering.coverage_threshold must be in [0, 1]")
        if self.tiering.min_table_rows < 0:
            raise ValueError("tiering.min_table_rows must be non-negative")
        if self.tiering.profile_batches < 0:
            raise ValueError("tiering.profile_batches must be non-negative")
        if self.tiering.enabled and self.precision.storage != "fp32":
            raise ValueError(
                "tiering.enabled requires precision.storage='fp32' "
                "(Split-BF16 tables keep their lo half with the optimizer "
                "and always stay flat)"
            )
        res = self.resilience
        if res.max_restarts < 0:
            raise ValueError("resilience.max_restarts must be non-negative")
        if res.heartbeat_timeout <= 0:
            raise ValueError("resilience.heartbeat_timeout must be positive")
        if res.ring_every < 0:
            raise ValueError("resilience.ring_every must be non-negative")
        if res.ring_keep < 1:
            raise ValueError("resilience.ring_keep must be >= 1")
        if res.faults:
            from repro.resilience.faults import FaultPlan

            try:
                FaultPlan.parse(res.faults)
            except ValueError as exc:
                raise ValueError(f"resilience.faults: {exc}") from exc
        if self.schedule.steps < 0:
            raise ValueError("schedule.steps must be non-negative")
        if self.schedule.lr_schedule is not None:
            sched = dict(self.schedule.lr_schedule)
            name = sched.pop("name", None)
            if name not in LR_SCHEDULES:
                raise ValueError(
                    f"schedule.lr_schedule.name {name!r} not registered; "
                    f"have {sorted(LR_SCHEDULES)}"
                )

    # -- round trip ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-values dict; ``from_dict`` inverts it exactly."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSpec":
        """Build a spec from a plain dict, rejecting unknown keys (but for
        the retired ones of :data:`_RETIRED`)."""
        if not isinstance(data, dict):
            raise TypeError(f"RunSpec wants a mapping, got {type(data).__name__}")
        sections = {
            "model": ModelSpec,
            "data": DataSpec,
            "optimizer": OptimizerSpec,
            "update": UpdateSpec,
            "precision": PrecisionSpec,
            "parallel": ParallelSpec,
            "tiering": TieringSpec,
            "resilience": ResilienceSpec,
            "schedule": ScheduleSpec,
        }
        unknown = sorted(set(data) - set(sections) - {"name"})
        if unknown:
            raise ValueError(f"RunSpec: unknown sections {unknown}")
        kwargs: dict[str, Any] = {"name": data.get("name", "run")}
        for key, section_cls in sections.items():
            if key in data:
                section = _drop_retired(key, data[key])
                kwargs[key] = _from_mapping(section_cls, section, f"RunSpec.{key}")
        return cls(**kwargs)

    # -- overlay / mutation ---------------------------------------------------

    def with_overrides(self, overrides: dict[str, Any]) -> "RunSpec":
        """A new validated spec with dotted-path fields replaced.

        Keys are ``"section.field"`` paths (``"parallel.bucket_mb"``,
        ``"schedule.batch_size"``, or plain ``"name"``); values replace
        the named field via ``dataclasses.replace``, so the result is a
        fresh frozen spec that re-runs :meth:`validate`.  This is the
        mutation primitive the ``repro.tune`` search uses to overlay one
        knob assignment onto a base spec::

            spec.with_overrides({"parallel.exec_backend": "process",
                                 "schedule.batch_size": 256})

        Raises ``ValueError`` on unknown sections/fields and whenever
        the overlaid spec fails cross-field validation.
        """
        by_section: dict[str, dict[str, Any]] = {}
        top: dict[str, Any] = {}
        for path, value in overrides.items():
            if "." not in path:
                if path != "name":
                    raise ValueError(
                        f"override path {path!r} must be 'name' or 'section.field'"
                    )
                top[path] = value
                continue
            section, field_name = path.split(".", 1)
            if "." in field_name:
                raise ValueError(
                    f"override path {path!r} nests too deep; use 'section.field'"
                )
            by_section.setdefault(section, {})[field_name] = value
        sections = {f.name for f in fields(self)} - {"name"}
        replacements: dict[str, Any] = dict(top)
        for section, updates in by_section.items():
            if section not in sections:
                raise ValueError(
                    f"override section {section!r} unknown; have {sorted(sections)}"
                )
            current = getattr(self, section)
            known = {f.name for f in fields(current)}
            unknown = sorted(set(updates) - known)
            if unknown:
                raise ValueError(
                    f"override fields {unknown} unknown in RunSpec.{section}; "
                    f"known: {sorted(known)}"
                )
            replacements[section] = dataclasses.replace(current, **updates)
        return dataclasses.replace(self, **replacements)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RunSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- builders ----------------------------------------------------------

    def build_config(self) -> DLRMConfig:
        return self.model.build_config()

    def build_model(
        self, cfg: DLRMConfig | None = None, table_ids: list[int] | None = None,
        slab_alloc=None, state=None,
    ) -> DLRM:
        """The spec's model (``state``: its tensors, see ``DLRM``)."""
        cfg = cfg or self.build_config()
        return DLRM(
            cfg,
            seed=self.model.seed,
            engine=self.model.engine,
            storage=self.precision.storage,
            lo_bits=self.precision.lo_bits,
            table_ids=table_ids,
            slab_alloc=slab_alloc,
            state=state,
        )

    def build_dataset(self, cfg: DLRMConfig | None = None):
        cfg = cfg or self.build_config()
        return create(
            DATASETS, "dataset", self.data.name, cfg=cfg, seed=self.data.seed, **self.data.kwargs
        )

    def build_strategy(self) -> UpdateStrategy:
        return make_strategy(self.update.name)

    def build_optimizer(self, strategy: UpdateStrategy | None = None) -> SGD:
        strategy = strategy or self.build_strategy()
        kwargs = dict(self.optimizer.kwargs)
        if self.optimizer.name == "split_sgd":
            kwargs.setdefault("lo_bits", self.precision.lo_bits)
        opt = create(
            OPTIMIZERS, "optimizer", self.optimizer.name,
            lr=self.optimizer.lr, strategy=strategy, **kwargs,
        )
        if isinstance(opt, SplitSGD) and opt.lo_bits != self.precision.lo_bits:
            raise ValueError(
                f"optimizer lo_bits {opt.lo_bits} != precision.lo_bits "
                f"{self.precision.lo_bits}"
            )
        return opt

    def build_lr_schedule(self):
        """The configured LR schedule instance, or None."""
        if self.schedule.lr_schedule is None:
            return None
        kwargs = dict(self.schedule.lr_schedule)
        name = kwargs.pop("name")
        return create(LR_SCHEDULES, "lr schedule", name, **kwargs)

    def train_batch_size(self, cfg: DLRMConfig | None = None) -> int:
        """The per-step batch size: explicit, or the config's default."""
        if self.schedule.batch_size is not None:
            return self.schedule.batch_size
        cfg = cfg or self.build_config()
        return cfg.global_minibatch if self.parallel.ranks > 1 else cfg.minibatch
