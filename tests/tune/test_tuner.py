"""SuccessiveHalving: determinism, pinned elimination, failure handling.

These tests inject a fake runner with hand-authored scores so the
halving mechanics are pinned independently of trainer timing.
"""

from __future__ import annotations

import random

from repro.tune.bottleneck import Bottleneck
from repro.tune.space import Knob, SearchSpace
from repro.tune.trial import TrialResult
from repro.tune.tuner import SuccessiveHalving


def _toy_space() -> SearchSpace:
    """Two independent integer knobs; every overlay is valid."""
    knobs = [
        Knob("a", (1, 2, 3), lambda v: {"parallel.exec_workers": v}),
        Knob("b", (0.3, 0.5, 0.7), lambda v: {"tiering.coverage_threshold": v}),
    ]
    return SearchSpace(knobs=knobs, validate=lambda ov: ov, flip_prob=0.9)


class ScriptedRunner:
    """Scores arms by a fixed function of the overlay; records calls."""

    def __init__(self, score_fn, fail_arms=()):
        self.score_fn = score_fn
        self.fail_arms = set(fail_arms)
        self.calls: list[tuple[int, int, int]] = []

    def run(self, overlay, arm_id, steps, rung):
        self.calls.append((rung, arm_id, steps))
        if arm_id in self.fail_arms:
            return TrialResult(
                arm_id=arm_id, overlay=overlay, rung=rung, steps=steps,
                ok=False, score=float("-inf"), error="RuntimeError: boom",
            )
        score = self.score_fn(overlay, arm_id)
        return TrialResult(
            arm_id=arm_id, overlay=overlay, rung=rung, steps=steps,
            ok=True, score=score, step_s=1.0 / score,
            breakdown={"gemm": 1.0},
            bottleneck=Bottleneck("data", 1.0, 0.5, "hint", "a", +1),
        )


def _sha(runner, **kw) -> SuccessiveHalving:
    defaults = dict(budget=5, seed=0, eta=2, rung0_steps=2, max_rungs=3, mutants=0)
    defaults.update(kw)
    return SuccessiveHalving(_toy_space(), runner, **defaults)


def _width_score(overlay, arm_id):
    # A wider pool scores higher; defaults arm gets width 1.
    return float(overlay.get("parallel.exec_workers", 1))


class TestDeterminism:
    def test_same_seed_same_winner_and_scores(self):
        runs = []
        for _ in range(2):
            res = _sha(ScriptedRunner(_width_score)).run()
            runs.append(
                (
                    res.winner.arm_id,
                    [(r.arm_id, r.score) for rung in res.rungs for r in rung],
                    res.eliminated,
                )
            )
        assert runs[0] == runs[1]

    def test_elimination_order_pinned(self):
        res = _sha(ScriptedRunner(_width_score)).run()
        # Arm pool is a pure function of seed 0; pin the exact order the
        # weakest arms left the race (worst first within each rung).
        # Rung 0 drops the two width-1 sampled arms (worst id last); the
        # baseline would be cut at rung 1 but is protection-exempt, so
        # nothing else ever eliminates.
        assert res.eliminated == [(0, 4), (0, 3)]
        assert res.winner.arm_id == 1
        assert res.winner.overlay["parallel.exec_workers"] == 2

    def test_rungs_grow_by_eta(self):
        runner = ScriptedRunner(_width_score)
        _sha(runner).run()
        steps_by_rung = {}
        for rung, _, steps in runner.calls:
            steps_by_rung.setdefault(rung, steps)
        assert steps_by_rung == {0: 2, 1: 4, 2: 8}


class TestBaselineProtection:
    def test_baseline_reaches_final_rung(self):
        # Baseline (arm 0, empty overlay) scores worst yet still runs at
        # every rung: the winner is provably >= all-defaults.
        res = _sha(ScriptedRunner(_width_score)).run()
        last = res.rungs[-1]
        assert any(r.arm_id == 0 for r in last)
        baseline = next(r for r in last if r.arm_id == 0)
        assert res.winner_result.score >= baseline.score

    def test_winner_is_baseline_when_nothing_beats_it(self):
        res = _sha(ScriptedRunner(lambda ov, arm: 10.0 - len(ov))).run()
        assert res.winner.arm_id == 0


class TestFailures:
    def test_failed_arms_score_last_and_search_completes(self):
        runner = ScriptedRunner(_width_score, fail_arms={1, 2})
        res = _sha(runner).run()
        assert res.winner.arm_id not in (1, 2)
        failed = [r for rung in res.rungs for r in rung if not r.ok]
        assert failed and all(r.score == float("-inf") for r in failed)
        # Failed arms eliminate at the first cut.
        dropped_r0 = {arm for rung, arm in res.eliminated if rung == 0}
        assert {1, 2} & dropped_r0

    def test_all_arms_failing_still_returns_a_winner(self):
        runner = ScriptedRunner(_width_score, fail_arms={0, 1, 2, 3, 4})
        res = _sha(runner).run()
        assert res.winner_result.ok is False


class TestMutation:
    def test_bottleneck_hint_spawns_child(self):
        # Every result points at knob "a" (+1); with mutants=1 each rung
        # adds one child stepping the top survivor's knob.
        runner = ScriptedRunner(_width_score)
        res = _sha(runner, mutants=1).run()
        mutants = [a for a in res.arms if a.origin.startswith("mutant:")]
        assert mutants
        parent_ids = {int(a.origin.split(":")[1]) for a in mutants}
        assert parent_ids <= {a.arm_id for a in res.arms}

    def test_mutants_race_in_later_rungs(self):
        runner = ScriptedRunner(_width_score)
        res = _sha(runner, mutants=1).run()
        mutant_ids = {a.arm_id for a in res.arms if a.origin.startswith("mutant:")}
        raced = {r.arm_id for rung in res.rungs[1:] for r in rung}
        assert mutant_ids & raced


class TestPriorPruning:
    def test_prior_orders_the_pool(self):
        # Prior = fewer-knobs-is-cheaper; the kept arms must be the
        # lowest-prior candidates of the oversampled pool.
        space = _toy_space()
        sha = SuccessiveHalving(
            space,
            ScriptedRunner(_width_score),
            budget=3,
            seed=0,
            prior=lambda ov: float(len(ov)),
        )
        res = sha.run()
        sampled = [a for a in res.arms if a.origin == "sampled"]
        assert all(a.prior_s is not None for a in sampled)
        rng = random.Random(0)
        pool = _toy_space().sample(2 * 2, rng)
        kept = sorted(a.prior_s for a in sampled)
        best_possible = sorted(float(len(ov)) for ov in pool)[: len(sampled)]
        assert kept == best_possible


class TestServeSearchAgainstParent:
    def test_fixed_seed_returns_the_parents_winner_and_scores(self):
        """Recorded at commit 7541f89 (plain ``ReplicaSet`` loop, ``repr``-keyed
        assignments); serve tuning is virtual-clocked, so every host agrees."""
        from repro.serve import ServeParams
        from repro.tune.trial import ServeTrialRunner

        base = ServeParams(config="small", mean_qps=4000.0, seed=0)
        res = SuccessiveHalving(
            SearchSpace.serve_space(base),
            ServeTrialRunner(base, sla_ms=6.0),
            budget=6, seed=0, rung0_steps=64, max_rungs=2,
        ).run()
        assert (res.winner.arm_id, res.winner.overlay) == (
            4, {"policy": "adaptive", "max_batch_samples": 1024, "cache_rows": 32768}
        )
        assert res.eliminated == [(0, 2), (0, 5), (0, 3)]
        assert [(r.arm_id, r.score.hex()) for rung in res.rungs for r in rung] == [
            (0, "-0x1.42cce26b3ddc0p-3"), (1, "-0x1.42cce26b3ddc0p-3"),
            (2, "-0x1.bc62bfc8d53fcp+1"), (3, "-0x1.42cce26b3ddc0p-3"),
            (4, "0x1.8b24e28291f56p+11"), (5, "-0x1.42cce26b3ddc0p-3"),
            (4, "0x1.192f4a06168f9p+12"), (0, "0x1.f49ef590f4863p+11"),
            (1, "0x1.f49ef590f4863p+11"),
        ]
