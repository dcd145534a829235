"""Cost-model-driven embedding placement and tiering planner.

Consumes a :class:`~repro.tiering.freqstats.FreqSnapshot` (row-access
frequencies from a profiling pass, live training, or the serving cache)
plus the :class:`~repro.hw.costmodel.CostModel` gather pricing, and
emits a :class:`TieredPlacement`:

* **per-table storage mode** -- ``hot_cold`` when a hot set within the
  per-table row budget absorbs enough of the look-up traffic (a Zipf
  head), ``flat`` otherwise (uniform traffic, or a table small enough
  that tiering buys nothing);
* **table-to-rank owners** -- greedy LPT over the predicted per-table
  gather cost under the chosen modes (frequency-weighted, hot-discounted)
  when frequencies are available, over table bytes otherwise.  Integer
  byte loads and table-id tie-breaks keep the result deterministic
  across runs and processes.

The planner is ``placement="auto"`` next to ``round_robin`` and
``balanced`` (see :mod:`repro.parallel.placement`, which names its
byte-balanced fallback); :func:`plan_from_spec` is the trainer/CLI entry
point, which profiles a few deterministic dataset batches -- the
datasets are pure functions of ``(seed, batch_index)``, so a resumed or
serving process recomputes the *same* plan from the spec alone.

Scope: tables are still placed whole (rowwise cross-rank sharding of a
single table remains a roadmap item); tiering decides how each owned
table is *stored*, not where its rows live in the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DLRMConfig
from repro.obs.tracer import trace
from repro.parallel.placement import _validate, balanced_placement, lpt_owners
from repro.tiering.freqstats import FreqSnapshot, FreqStats

#: Default per-table pinned-hot row budget.
DEFAULT_HOT_ROWS = 8192
#: Minimum fraction of a table's look-ups the hot set must absorb for
#: hot/cold storage to be worth the split gathers.
DEFAULT_COVERAGE_THRESHOLD = 0.5
#: Tables smaller than this stay flat: they fit in cache anyway.
DEFAULT_MIN_TABLE_ROWS = 2048


@dataclass(frozen=True)
class TablePlan:
    """Storage decision for one table."""

    table: int
    #: ``"flat"`` (rows in id order) or ``"hot_cold"`` (rows hot-first on
    #: a file mapping, ``hot_rows`` the prefix).
    mode: str
    #: Pinned-hot row ids, sorted ascending (empty when flat).
    hot_rows: np.ndarray
    #: Predicted fraction of look-ups the hot set serves (0.0 when flat).
    hot_coverage: float

    def __post_init__(self) -> None:
        if self.mode not in ("flat", "hot_cold"):
            raise ValueError(f"mode must be flat or hot_cold, got {self.mode!r}")


@dataclass(frozen=True)
class TieredPlacement:
    """The planner's full output: owners + per-table storage plans.

    Picklable (it rides to process-backend workers inside
    ``DistributedDLRM.init_kwargs``) and cheap to recompute: resume and
    serving paths rebuild it from the spec rather than persisting it.
    """

    owners: tuple[int, ...]
    plans: dict[int, TablePlan] = field(default_factory=dict)
    #: Predicted per-table gather seconds under the chosen modes.
    table_cost: tuple[float, ...] = ()
    #: Per-rank sums of ``table_cost`` under ``owners``.
    rank_cost: tuple[float, ...] = ()

    @property
    def tiered_tables(self) -> list[int]:
        return sorted(t for t, p in self.plans.items() if p.mode == "hot_cold")

    def describe(self, cfg: DLRMConfig) -> list[dict[str, object]]:
        """One row per table for the ``repro plan`` report."""
        rows = []
        row_bytes = cfg.embedding_dim * 4
        for t in range(cfg.num_tables):
            plan = self.plans.get(t)
            mode = plan.mode if plan is not None else "flat"
            hot = int(plan.hot_rows.size) if plan is not None else 0
            rows.append(
                {
                    "table": t,
                    "rank": self.owners[t],
                    "rows": cfg.table_rows[t],
                    "mode": mode,
                    "hot_rows": hot,
                    "hot_mb": hot * row_bytes / 2**20,
                    "coverage": plan.hot_coverage if plan is not None else 0.0,
                    "gather_ms": (
                        self.table_cost[t] * 1e3 if self.table_cost else 0.0
                    ),
                }
            )
        return rows


def _default_cost():
    from repro.hw.costmodel import CostModel
    from repro.hw.spec import CLX_8280

    return CostModel(CLX_8280)


def plan_placement(
    cfg: DLRMConfig,
    n_ranks: int,
    snapshot: FreqSnapshot | None = None,
    cost=None,
    *,
    hot_rows: int = DEFAULT_HOT_ROWS,
    coverage_threshold: float = DEFAULT_COVERAGE_THRESHOLD,
    min_table_rows: int = DEFAULT_MIN_TABLE_ROWS,
) -> TieredPlacement:
    """Plan storage modes and owners for every table.

    With no ``snapshot`` (or one with nothing recorded) every table
    stays flat and owners fall back to byte-balanced LPT -- the planner
    never guesses a hot set it has no evidence for.
    """
    _validate(cfg, n_ranks)
    if cost is None:
        cost = _default_cost()
    s = cfg.num_tables
    row_bytes = cfg.embedding_dim * 4
    have_freq = snapshot is not None and any(snapshot.totals)

    # -- per-table storage mode --------------------------------------------
    plans: dict[int, TablePlan] = {}
    flat = np.empty(0, dtype=np.int64)
    for t in range(s):
        mode, hot, coverage = "flat", flat, 0.0
        if (
            have_freq
            and hot_rows > 0
            and cfg.table_rows[t] >= min_table_rows
            and cfg.table_rows[t] > hot_rows
        ):
            cand, cand_cov = snapshot.hot_set(t, hot_rows)
            if cand.size and cand_cov >= coverage_threshold:
                mode, hot, coverage = "hot_cold", cand, cand_cov
        plans[t] = TablePlan(table=t, mode=mode, hot_rows=hot, hot_coverage=coverage)

    # -- per-table predicted gather cost ------------------------------------
    if have_freq:
        total = sum(snapshot.totals)
        lookups = [
            snapshot.totals[t] if snapshot.totals[t] else max(1, total // s)
            for t in range(s)
        ]
    else:
        lookups = [cfg.minibatch * cfg.lookups_per_table] * s
    table_cost = tuple(
        cost.tiered_gather_time(lookups[t], row_bytes, plans[t].hot_coverage)
        for t in range(s)
    )

    # -- owners: greedy LPT -------------------------------------------------
    # Frequency-informed runs balance predicted gather seconds; blind runs
    # balance table bytes (all-flat gather costs are degenerate there).
    if have_freq:
        owners = lpt_owners(table_cost, n_ranks)
    else:
        owners = balanced_placement(cfg, n_ranks)
    rank_cost = [0.0] * n_ranks
    for t in range(s):
        rank_cost[owners[t]] += table_cost[t]
    return TieredPlacement(
        owners=tuple(owners),
        plans=plans,
        table_cost=table_cost,
        rank_cost=tuple(rank_cost),
    )


def profile_snapshot(
    spec, cfg: DLRMConfig | None = None, batches: int | None = None
) -> FreqSnapshot:
    """Record ``batches`` deterministic dataset batches into a snapshot.

    The datasets are pure functions of ``(seed, batch_index)``; profiling
    reads batches ``0 .. batches-1`` -- the same ones training will see
    -- without consuming anything, so every process that holds the spec
    derives the identical snapshot (and therefore the identical plan).
    """
    cfg = cfg or spec.build_config()
    n = spec.tiering.profile_batches if batches is None else batches
    dataset = spec.build_dataset(cfg)
    stats = FreqStats(cfg.table_rows)
    batch_size = spec.train_batch_size(cfg)
    for b in range(max(1, n)):
        stats.record_batch(dataset.batch(batch_size, b))
    return stats.snapshot(head_rows=max(65536, spec.tiering.hot_rows))


def plan_from_spec(spec, cfg: DLRMConfig | None = None, cost=None) -> TieredPlacement | None:
    """The trainer/serving/CLI entry point: plan for a full RunSpec.

    Returns ``None`` when the spec asks for neither ``placement="auto"``
    nor tiering -- callers keep their static-placement path untouched.
    Tiering decisions are gated to FP32 storage (Split-BF16's lo half
    lives with the optimizer; those tables always stay flat).
    """
    tier = spec.tiering
    if spec.parallel.placement != "auto" and not tier.enabled:
        return None
    cfg = cfg or spec.build_config()
    snapshot = None
    tier_storage = (tier.enabled or spec.parallel.placement == "auto") and (
        spec.precision.storage == "fp32"
    )
    with trace("tiering.plan", ranks=spec.parallel.ranks, tables=cfg.num_tables):
        if tier_storage and tier.profile_batches > 0:
            snapshot = profile_snapshot(spec, cfg)
        return plan_placement(
            cfg,
            spec.parallel.ranks,
            snapshot=snapshot,
            cost=cost,
            hot_rows=tier.hot_rows,
            coverage_threshold=tier.coverage_threshold,
            min_table_rows=tier.min_table_rows,
        )
