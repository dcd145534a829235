"""Embedding-table placement across ranks.

The paper distributes tables round-robin ("we simply distribute tables
across available ranks").  For the homogeneous small/large configs that
is optimal, but the MLPerf config's cardinalities span 3 .. 40M rows: a
naive round-robin can leave one socket holding most of the 96 GB while
another holds kilobytes -- and, with P=1 look-ups per table, a matching
imbalance in embedding compute.

This module provides the paper's placement, a size-balanced alternative
(greedy LPT over table bytes), and a frequency/cost-driven ``auto``
placement backed by the tiering planner (:mod:`repro.tiering.planner`),
plus the statistics needed to compare them.  ``DistributedDLRM``, the
trainer and the analytic iteration model all accept an explicit
placement; the virtual clocks price the differences.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DLRMConfig


def round_robin_placement(cfg: DLRMConfig, n_ranks: int) -> list[int]:
    """The paper's placement: table t lives on rank ``t % R``."""
    _validate(cfg, n_ranks)
    return [t % n_ranks for t in range(cfg.num_tables)]


def balanced_placement(cfg: DLRMConfig, n_ranks: int) -> list[int]:
    """Greedy longest-processing-time placement over table bytes.

    Tables are assigned largest-first to the currently-lightest rank.
    Loads are exact integer bytes and every comparison -- the assignment
    order and the lightest-rank choice -- tie-breaks on the smaller id,
    so the result is a pure function of the config, independent of dict
    ordering or float accumulation quirks.  Guarantees every rank gets
    at least one table when R <= S (largest R tables seed the ranks).
    """
    _validate(cfg, n_ranks)
    order = sorted(
        range(cfg.num_tables), key=lambda t: (-cfg.table_rows[t], t)
    )
    owners = [0] * cfg.num_tables
    load = [0] * n_ranks
    row_bytes = cfg.embedding_dim * 4
    for i, t in enumerate(order):
        if i < n_ranks:
            rank = i  # seed every rank with one of the largest tables
        else:
            rank = min(range(n_ranks), key=lambda r: (load[r], r))
        owners[t] = rank
        load[rank] += cfg.table_rows[t] * row_bytes
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


def _auto_placement(cfg: DLRMConfig, n_ranks: int) -> list[int]:
    """The tiering planner's cost-driven placement (lazy import: the
    planner imports the cost model; keep base placement dependency-free)."""
    from repro.tiering.planner import auto_placement

    return auto_placement(cfg, n_ranks)


PLACEMENTS = {
    "round_robin": round_robin_placement,
    "balanced": balanced_placement,
    "auto": _auto_placement,
}


def make_placement(name: str, cfg: DLRMConfig, n_ranks: int) -> list[int]:
    try:
        return PLACEMENTS[name](cfg, n_ranks)
    except KeyError:
        raise ValueError(
            f"unknown placement {name!r}; have {sorted(PLACEMENTS)}"
        ) from None
