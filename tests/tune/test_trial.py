"""Trial runner: real short runs, failure scoring, state restoration."""

from __future__ import annotations

import pytest

from repro.exec.pool import get_pool
from repro.obs import set_tracer
from repro.obs.tracer import get_tracer
from repro.train.spec import RunSpec
from repro.tune.trial import ServeTrialRunner, TrainTrialRunner, TrialResult


def _quick_base() -> RunSpec:
    return RunSpec().with_overrides(
        {
            "model.rows_cap": 128,
            "model.minibatch": 16,
            "schedule.eval_size": 32,
        }
    )


def _dist_base() -> RunSpec:
    return _quick_base().with_overrides(
        {"parallel.ranks": 2, "parallel.platform": "node"}
    )


class TestTrainTrial:
    def test_single_process_trial_scores(self):
        res = TrainTrialRunner(_quick_base(), warmup=1).run({}, 0, steps=2, rung=0)
        assert res.ok
        assert res.score > 0
        assert res.wall_step_s is not None and res.wall_step_s > 0
        assert set(res.breakdown) >= {"gemm", "embedding", "update", "host"}
        assert res.bottleneck is not None and res.bottleneck.share > 0

    def test_distributed_virtual_scoring_is_deterministic(self):
        runner = TrainTrialRunner(_dist_base(), warmup=1, measure="virtual")
        a = runner.run({}, 0, steps=2, rung=0)
        b = runner.run({}, 0, steps=2, rung=0)
        assert a.ok and b.ok
        assert a.score == b.score
        assert a.step_s == b.step_s

    def test_wall_measure_uses_wall_clock(self):
        runner = TrainTrialRunner(_quick_base(), warmup=0, measure="wall")
        res = runner.run({}, 0, steps=2, rung=0)
        assert res.ok
        assert res.step_s == res.wall_step_s

    def test_invalid_overlay_scores_failed_not_raises(self):
        runner = TrainTrialRunner(_dist_base(), warmup=0)
        res = runner.run({"schedule.batch_size": 7}, 3, steps=1, rung=0)
        assert not res.ok
        assert res.score == float("-inf")
        assert res.error and "ValueError" in res.error

    def test_crash_mid_run_scores_failed(self):
        # A typed fault killing the run inside fit() must score, not abort.
        runner = TrainTrialRunner(_dist_base(), warmup=0)
        res = runner.run(
            {"resilience.faults": "train.step:step=0,action=raise"}, 4, steps=1, rung=0
        )
        assert not res.ok
        assert res.score == float("-inf")

    def test_pool_and_tracer_restored(self):
        saved = get_pool().workers
        set_tracer(None)
        runner = TrainTrialRunner(_dist_base(), warmup=0)
        runner.run({"parallel.exec_workers": 2}, 0, steps=1, rung=0)
        assert get_pool().workers == saved
        assert get_tracer() is None

    def test_a_trial_writes_no_checkpoint(self, tmp_path, monkeypatch):
        """A base spec that checkpoints every step still leaves no file:
        trials turn the periodic checkpoint off."""
        monkeypatch.chdir(tmp_path)
        base = _quick_base().with_overrides({"resilience.ring_every": 1})
        res = TrainTrialRunner(base, warmup=1).run({}, 0, steps=2, rung=0)
        assert res.ok
        assert list(tmp_path.rglob("*")) == []

    def test_a_trial_makes_no_restart(self):
        """A crash fails the arm instead of passing as a slow success."""
        base = _quick_base().with_overrides(
            {"resilience.max_restarts": 2, "resilience.faults": "train.step:step=2,action=raise"}
        )
        assert not TrainTrialRunner(base, warmup=1).run({}, 0, steps=2, rung=0).ok

    def test_bad_measure_rejected(self):
        with pytest.raises(ValueError, match="measure"):
            TrainTrialRunner(_quick_base(), measure="cpu")


class TestServeTrial:
    def test_sla_meeting_arm_scores_qps(self):
        from repro.serve.driver import ServeParams

        runner = ServeTrialRunner(
            ServeParams(config="small", mean_qps=200.0), sla_ms=1e6
        )
        res = runner.run({}, 0, steps=64, rung=0)
        assert res.ok
        assert res.score > 0  # generous SLA met -> score is QPS
        assert res.bottleneck is not None

    def test_sla_violator_ranks_by_excess(self):
        from repro.serve.driver import ServeParams

        runner = ServeTrialRunner(
            ServeParams(config="small", mean_qps=4000.0), sla_ms=1e-9
        )
        res = runner.run({}, 0, steps=64, rung=0)
        assert res.ok
        assert res.score < 0  # impossible SLA -> negative excess
        assert res.bottleneck is not None and res.bottleneck.knob == "max_batch_samples"

    def test_serve_failure_scored(self):
        from repro.serve.driver import ServeParams

        runner = ServeTrialRunner(ServeParams(config="small"), sla_ms=5.0)
        res = runner.run({"replicas": 0}, 1, steps=64, rung=0)
        assert not res.ok
        assert res.score == float("-inf")


class TestRecord:
    def test_inf_scores_serialise_to_null(self):
        rec = TrialResult(
            arm_id=1, overlay={}, rung=0, steps=1, ok=False, score=float("-inf")
        ).as_record()
        assert rec["score"] is None
        import json

        json.dumps(rec)  # record must be JSON-clean
