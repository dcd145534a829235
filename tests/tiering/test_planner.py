"""Placement planner: storage modes, LPT owners, spec entry points."""

import numpy as np
import pytest

from repro.parallel.placement import PLACEMENTS, make_placement, validate_placement
from repro.tiering.freqstats import FreqStats
from repro.tiering.planner import plan_from_spec, plan_placement, profile_snapshot
from repro.train import RunSpec
from tests.conftest import tiny_config


def skewed_snapshot(cfg, hot=8, hot_share=0.9, lookups=4000):
    """A synthetic Zipf-like head: ``hot`` rows absorb ``hot_share``."""
    g = np.random.default_rng(0)
    stats = FreqStats(cfg.table_rows)
    n_hot = int(lookups * hot_share)
    for t in range(cfg.num_tables):
        head = g.integers(0, hot, size=n_hot, dtype=np.int64)
        tail = g.integers(0, cfg.table_rows[t], size=lookups - n_hot, dtype=np.int64)
        stats.record(t, np.concatenate([head, tail]))
    return stats.snapshot()


def uniform_snapshot(cfg, lookups=4000):
    g = np.random.default_rng(0)
    stats = FreqStats(cfg.table_rows)
    for t in range(cfg.num_tables):
        stats.record(t, g.integers(0, cfg.table_rows[t], size=lookups, dtype=np.int64))
    return stats.snapshot()


class TestStorageModes:
    def test_skew_goes_hot_cold(self):
        cfg = tiny_config(rows=500)
        snap = skewed_snapshot(cfg)
        plan = plan_placement(cfg, 2, snapshot=snap, hot_rows=16, min_table_rows=64)
        for t in range(cfg.num_tables):
            assert plan.plans[t].mode == "hot_cold"
            assert plan.plans[t].hot_coverage >= 0.5
            assert plan.plans[t].hot_rows.size <= 16

    def test_uniform_stays_flat(self):
        cfg = tiny_config(rows=500)
        snap = uniform_snapshot(cfg)
        plan = plan_placement(cfg, 2, snapshot=snap, hot_rows=16, min_table_rows=64)
        assert all(p.mode == "flat" for p in plan.plans.values())
        assert plan.tiered_tables == []

    def test_small_tables_stay_flat(self):
        cfg = tiny_config(rows=50)
        snap = skewed_snapshot(cfg)
        plan = plan_placement(cfg, 2, snapshot=snap, hot_rows=16, min_table_rows=64)
        assert all(p.mode == "flat" for p in plan.plans.values())

    def test_no_snapshot_means_flat(self):
        cfg = tiny_config(rows=500)
        plan = plan_placement(cfg, 2, hot_rows=16, min_table_rows=64)
        assert all(p.mode == "flat" for p in plan.plans.values())


class TestOwners:
    def test_valid_and_deterministic(self):
        cfg = tiny_config(rows=500)
        snap = skewed_snapshot(cfg)
        a = plan_placement(cfg, 2, snapshot=snap, hot_rows=16, min_table_rows=64)
        b = plan_placement(cfg, 2, snapshot=snap, hot_rows=16, min_table_rows=64)
        validate_placement(cfg, list(a.owners), 2)
        assert a.owners == b.owners
        for t in range(cfg.num_tables):
            np.testing.assert_array_equal(a.plans[t].hot_rows, b.plans[t].hot_rows)

    def test_rank_cost_sums_table_cost(self):
        cfg = tiny_config(rows=500)
        plan = plan_placement(cfg, 2, snapshot=skewed_snapshot(cfg))
        for r in range(2):
            owned = sum(plan.table_cost[t] for t in range(cfg.num_tables) if plan.owners[t] == r)
            assert plan.rank_cost[r] == owned

    def test_registered_as_auto(self):
        assert "auto" in PLACEMENTS
        cfg = tiny_config()
        owners = make_placement("auto", cfg, 2)
        validate_placement(cfg, owners, 2)


class TestSpecEntryPoints:
    def spec(self, config="small", rows_cap=300, ranks=2, **tiering):
        return RunSpec.from_dict(
            {
                "model": {"config": config, "rows_cap": rows_cap, "minibatch": 32, "seed": 4},
                "data": {"name": "criteo", "seed": 1},
                "schedule": {"steps": 4},
                "parallel": {"ranks": ranks, "placement": "auto"},
                "tiering": {
                    "enabled": True,
                    "hot_rows": 32,
                    "min_table_rows": 64,
                    "coverage_threshold": 0.05,
                    **tiering,
                },
            }
        )

    def test_static_flat_spec_returns_none(self):
        spec = RunSpec.from_dict(
            {
                "model": {"config": "small", "rows_cap": 300},
                "data": {"name": "random"},
                "schedule": {"steps": 2},
            }
        )
        assert plan_from_spec(spec) is None

    def test_zipf_spec_plans_hot_cold(self):
        spec = self.spec()
        plan = plan_from_spec(spec)
        assert plan is not None
        assert plan.tiered_tables  # Zipf(1.05) data has a hot head
        assert len(plan.owners) == spec.build_config().num_tables

    def test_plan_recomputes_identically(self):
        """Resume/serving rebuild the plan from the spec alone."""
        spec = self.spec()
        a, b = plan_from_spec(spec), plan_from_spec(spec)
        assert a.owners == b.owners
        for t, p in a.plans.items():
            assert p.mode == b.plans[t].mode
            np.testing.assert_array_equal(p.hot_rows, b.plans[t].hot_rows)

    def test_profile_snapshot_deterministic(self):
        spec = self.spec()
        a, b = profile_snapshot(spec), profile_snapshot(spec)
        assert a.totals == b.totals
        for (ra, ca), (rb, cb) in zip(a.heads, b.heads):
            np.testing.assert_array_equal(ra, rb)
            np.testing.assert_array_equal(ca, cb)

    @pytest.mark.parametrize(
        "config,rows_cap,ranks,owners",
        [
            ("small", 300, 2, (1, 1, 1, 0, 0, 1, 0, 0)),
            ("small", 300, 4, (2, 2, 0, 1, 3, 1, 0, 3)),
            (
                "mlperf", 4000, 4,
                (0, 2, 2, 3, 1, 0, 0, 0, 1, 0, 2, 3, 2, 3, 1, 3, 3, 1, 0, 2, 3, 2, 1, 3, 2, 1),
            ),
        ],
    )
    def test_frequency_informed_owners_are_pinned(self, config, rows_cap, ranks, owners):
        """The gather-cost LPT over a profiled Zipf spec, against recorded
        owners: a change to the order or the tie-breaks of
        :func:`~repro.parallel.placement.lpt_owners` moves them."""
        plan = plan_from_spec(self.spec(config, rows_cap, ranks))
        assert plan.tiered_tables
        assert plan.owners == owners
