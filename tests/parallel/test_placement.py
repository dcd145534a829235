"""Table placement: round-robin (the paper) vs size-balanced (extension)."""

import numpy as np
import pytest

from repro.core.config import CONFIGS, MLPERF, SMALL
from repro.core.optim import SGD
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM
from repro.parallel.placement import (
    balanced_placement,
    make_placement,
    placement_stats,
    round_robin_placement,
    validate_placement,
)
from repro.parallel.timing import model_iteration
from repro.tiering.planner import plan_placement
from tests.conftest import assert_same_bits, random_batch, tiny_config


class TestRoundRobin:
    def test_pattern(self):
        assert round_robin_placement(SMALL, 4) == [0, 1, 2, 3] * 2

    def test_rank_count_validated(self):
        with pytest.raises(ValueError):
            round_robin_placement(SMALL, 9)
        with pytest.raises(ValueError):
            round_robin_placement(SMALL, 0)


class TestBalanced:
    def test_every_rank_owns_a_table(self):
        for r in (2, 4, 8, 13, 26):
            owners = balanced_placement(MLPERF, r)
            validate_placement(MLPERF, owners, r)

    def test_beats_round_robin_on_mlperf_memory(self):
        """The heterogeneous Criteo tables are where LPT pays off."""
        for r in (4, 8, 13):
            rr = placement_stats(MLPERF, round_robin_placement(MLPERF, r), r)
            bal = placement_stats(MLPERF, balanced_placement(MLPERF, r), r)
            assert bal.memory_imbalance <= rr.memory_imbalance
            assert max(bal.bytes_per_rank) <= max(rr.bytes_per_rank)

    def test_homogeneous_tables_already_balanced(self):
        r = 4
        rr = placement_stats(SMALL, round_robin_placement(SMALL, r), r)
        bal = placement_stats(SMALL, balanced_placement(SMALL, r), r)
        assert rr.memory_imbalance == pytest.approx(1.0)
        assert bal.memory_imbalance == pytest.approx(1.0)

    def test_deterministic(self):
        assert balanced_placement(MLPERF, 8) == balanced_placement(MLPERF, 8)


class TestValidation:
    def test_missing_rank_rejected(self):
        cfg = tiny_config(num_tables=4)
        with pytest.raises(ValueError, match="own no tables"):
            validate_placement(cfg, [0, 0, 1, 1], 3)

    def test_out_of_range_rejected(self):
        cfg = tiny_config(num_tables=4)
        with pytest.raises(ValueError, match="out of range"):
            validate_placement(cfg, [0, 1, 2, 5], 3)

    def test_wrong_length_rejected(self):
        cfg = tiny_config(num_tables=4)
        with pytest.raises(ValueError, match="cover all"):
            validate_placement(cfg, [0, 1], 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown placement"):
            make_placement("hashring", SMALL, 4)


class TestIntegration:
    def test_distributed_training_equivalent_under_any_placement(self):
        """Placement moves tables between ranks; numerics must not move:
        every step's loss and the consolidated state, bit for bit."""
        cfg = tiny_config(num_tables=4, minibatch=16)
        batches = [random_batch(cfg, 16, seed=s) for s in range(3)]
        runs = []
        for placement in ("round_robin", "balanced", [1, 0, 1, 0]):
            cluster = SimCluster(2, backend="ccl")
            dist = DistributedDLRM(cfg, cluster, seed=7, placement=placement)
            dist.attach_optimizers(lambda: SGD(lr=0.05))
            losses = [dist.train_step(b) for b in batches]
            runs.append((placement, losses, dist.state_dict()))
        _, want_losses, want_state = runs[0]
        for placement, losses, state in runs[1:]:
            assert losses == want_losses, placement
            assert_same_bits(state, want_state, str(placement))

    def test_timing_model_accepts_placements(self):
        rr = model_iteration("mlperf", 8, placement="round_robin")
        bal = model_iteration("mlperf", 8, placement="balanced")
        assert rr.iteration_time > 0 and bal.iteration_time > 0

    def test_memory_vs_compute_balance_tradeoff(self):
        """The interesting MLPerf finding: byte-balanced LPT concentrates
        the *many tiny, highly-contended* tables on one rank (19 of 26),
        whose update cost -- dominated by per-table imbalance, not bytes
        -- then bottlenecks the iteration.  The paper's round-robin is
        compute-balanced; LPT is the capacity-pressure option."""
        rr = model_iteration("mlperf", 8, placement="round_robin", blocking=True)
        bal = model_iteration("mlperf", 8, placement="balanced", blocking=True)
        rr_stats = placement_stats(MLPERF, round_robin_placement(MLPERF, 8), 8)
        bal_stats = placement_stats(MLPERF, balanced_placement(MLPERF, 8), 8)
        assert bal_stats.memory_imbalance <= rr_stats.memory_imbalance
        assert bal.iteration_time > rr.iteration_time  # ...at a compute cost
        # The slow rank is the one holding the pile of tiny tables.
        bal_updates = [p.total("update.sparse") for p in bal.profilers]
        assert max(bal_updates) > 5 * np.median(bal_updates)


class TestAutoPlacement:
    def test_registered_and_valid(self):
        """placement="auto" (repro.tiering) sits next to the static two."""
        from repro.parallel.placement import PLACEMENTS

        assert set(PLACEMENTS) == {"round_robin", "balanced", "auto"}
        owners = make_placement("auto", MLPERF, 8)
        validate_placement(MLPERF, owners, 8)

    def test_blind_auto_is_byte_balanced(self):
        """Without frequency evidence auto degrades to LPT over bytes."""
        auto = placement_stats(MLPERF, make_placement("auto", MLPERF, 8), 8)
        rr = placement_stats(MLPERF, round_robin_placement(MLPERF, 8), 8)
        assert auto.memory_imbalance <= rr.memory_imbalance

    @pytest.mark.parametrize(
        "name,ranks",
        [(name, r) for name, cfg in CONFIGS.items() for r in range(1, cfg.num_tables + 1)],
    )
    def test_blind_auto_is_balanced(self, name, ranks):
        """Without a frequency snapshot the planner's owners are the
        byte-balanced LPT's, and ``auto`` names that placement."""
        cfg = CONFIGS[name]
        want = balanced_placement(cfg, ranks)
        assert make_placement("auto", cfg, ranks) == want
        assert list(plan_placement(cfg, ranks).owners) == want

    def test_balanced_is_deterministic(self):
        """Integer byte loads + table-id tie-breaks: no float drift."""
        for r in (2, 4, 8):
            a = balanced_placement(MLPERF, r)
            assert all(balanced_placement(MLPERF, r) == a for _ in range(3))
