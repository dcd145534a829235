"""Embedding-table placement across ranks.

The paper distributes tables round-robin ("we simply distribute tables
across available ranks").  For the homogeneous small/large configs that
is optimal, but the MLPerf config's cardinalities span 3 .. 40M rows: a
naive round-robin can leave one socket holding most of the 96 GB while
another holds kilobytes -- and, with P=1 look-ups per table, a matching
imbalance in embedding compute.

This module provides the paper's placement, a size-balanced alternative
(greedy LPT over table bytes), and the ``auto`` name of the tiering
planner (:mod:`repro.tiering.planner`), which balances predicted gather
cost given frequencies, plus the statistics needed to compare them.
``DistributedDLRM``, the trainer and the analytic iteration model all
accept an explicit placement; the virtual clocks price the differences.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DLRMConfig


def round_robin_placement(cfg: DLRMConfig, n_ranks: int) -> list[int]:
    """The paper's placement: table t lives on rank ``t % R``."""
    _validate(cfg, n_ranks)
    return [t % n_ranks for t in range(cfg.num_tables)]


def balanced_placement(cfg: DLRMConfig, n_ranks: int) -> list[int]:
    """Greedy longest-processing-time placement over table bytes
    (:func:`lpt_owners`): a pure function of the config, independent of
    dict ordering or float accumulation quirks."""
    _validate(cfg, n_ranks)
    row_bytes = cfg.embedding_dim * 4
    return lpt_owners([rows * row_bytes for rows in cfg.table_rows], n_ranks)


def lpt_owners(weight, n_ranks: int) -> list[int]:
    """Greedy LPT: tables largest ``weight`` first, each to the
    currently-lightest rank.

    Every comparison -- the assignment order and the lightest-rank
    choice -- tie-breaks on the smaller id, so integer weights give a
    deterministic result.  Every rank gets at least one table when
    R <= S (the heaviest R tables seed the ranks).
    """
    order = sorted(range(len(weight)), key=lambda t: (-weight[t], t))
    owners = [0] * len(weight)
    load = [0] * n_ranks
    for i, t in enumerate(order):
        if i < n_ranks:
            rank = i  # seed every rank with one of the heaviest tables
        else:
            rank = min(range(n_ranks), key=lambda r: (load[r], r))
        owners[t] = rank
        load[rank] += weight[t]
    return owners


def _validate(cfg: DLRMConfig, n_ranks: int) -> None:
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if n_ranks > cfg.num_tables:
        raise ValueError(
            f"pure model parallelism: {n_ranks} ranks > {cfg.num_tables} tables"
        )


def validate_placement(cfg: DLRMConfig, owners: list[int], n_ranks: int) -> None:
    """Every table owned by a valid rank; every rank owns >= 1 table."""
    if len(owners) != cfg.num_tables:
        raise ValueError(
            f"placement must cover all {cfg.num_tables} tables, got {len(owners)}"
        )
    if any(not 0 <= o < n_ranks for o in owners):
        raise ValueError("placement references a rank out of range")
    missing = set(range(n_ranks)) - set(owners)
    if missing:
        raise ValueError(f"ranks own no tables: {sorted(missing)}")


@dataclass(frozen=True)
class PlacementStats:
    """Per-rank load summary of one placement."""

    bytes_per_rank: tuple[float, ...]
    tables_per_rank: tuple[int, ...]

    @property
    def memory_imbalance(self) -> float:
        """Max/mean per-rank embedding bytes (1.0 = perfectly even)."""
        mean = sum(self.bytes_per_rank) / len(self.bytes_per_rank)
        if mean == 0:
            return 1.0
        return max(self.bytes_per_rank) / mean


def placement_stats(cfg: DLRMConfig, owners: list[int], n_ranks: int) -> PlacementStats:
    validate_placement(cfg, owners, n_ranks)
    row_bytes = cfg.embedding_dim * 4
    by = [0.0] * n_ranks
    cnt = [0] * n_ranks
    for t, o in enumerate(owners):
        by[o] += cfg.table_rows[t] * row_bytes
        cnt[o] += 1
    return PlacementStats(bytes_per_rank=tuple(by), tables_per_rank=tuple(cnt))


PLACEMENTS = {
    "round_robin": round_robin_placement,
    "balanced": balanced_placement,
    # Without frequency evidence the planner's placement is byte-balanced
    # LPT; :func:`repro.tiering.planner.plan_from_spec` supersedes it
    # whenever a spec is available.
    "auto": balanced_placement,
}


def make_placement(name: str, cfg: DLRMConfig, n_ranks: int) -> list[int]:
    try:
        return PLACEMENTS[name](cfg, n_ranks)
    except KeyError:
        raise ValueError(
            f"unknown placement {name!r}; have {sorted(PLACEMENTS)}"
        ) from None
