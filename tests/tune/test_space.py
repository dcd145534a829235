"""SearchSpace: coupled expansion, seeded sampling, single-step mutation."""

from __future__ import annotations

import random

import pytest

from repro.train.spec import RunSpec
from repro.tune.space import Knob, SearchSpace


def _dist_base() -> RunSpec:
    return RunSpec().with_overrides(
        {
            "model.rows_cap": 256,
            "model.minibatch": 32,
            "parallel.ranks": 2,
            "parallel.platform": "node",
            "schedule.eval_size": 64,
        }
    )


class TestKnob:
    def test_overlay_rejects_unknown_value(self):
        knob = Knob("k", (1, 2), lambda v: {"data.seed": v})
        with pytest.raises(ValueError, match="not in"):
            knob.overlay(3)

    def test_precision_knob_couples_optimizer(self):
        space = SearchSpace.train_space(_dist_base())
        knob = next(k for k in space.knobs if k.name == "precision")
        overlay = knob.overlay("split_bf16")
        assert overlay == {
            "precision.storage": "split_bf16",
            "optimizer.name": "split_sgd",
        }
        # ... so the expanded overlay always validates.
        space.validate(overlay)

    def test_tiering_auto_couples_placement(self):
        space = SearchSpace.train_space(_dist_base())
        knob = next(k for k in space.knobs if k.name == "tiering")
        assert knob.overlay("auto") == {
            "tiering.enabled": True,
            "parallel.placement": "auto",
        }


class TestTrainSpace:
    def test_distributed_only_knobs_gated_on_ranks(self):
        single = SearchSpace.train_space(RunSpec())
        dist = SearchSpace.train_space(_dist_base())
        single_names = {k.name for k in single.knobs}
        dist_names = {k.name for k in dist.knobs}
        assert "bucket_mb" not in single_names
        assert {"bucket_mb", "exec_backend", "exec_workers"} <= dist_names

    def test_batch_candidates_divisible_by_ranks(self):
        space = SearchSpace.train_space(_dist_base())
        knob = next(k for k in space.knobs if k.name == "batch_size")
        assert all(b % 2 == 0 for b in knob.values)

    def test_sample_is_deterministic_and_valid(self):
        base = _dist_base()
        a = SearchSpace.train_space(base).sample(6, random.Random(7))
        b = SearchSpace.train_space(base).sample(6, random.Random(7))
        assert a == b
        for overlay in a:
            base.with_overrides(overlay)  # every sampled arm builds

    def test_sample_dedups(self):
        space = SearchSpace.train_space(_dist_base())
        overlays = space.sample(10, random.Random(0))
        keys = [space.canonical(ov) for ov in overlays]
        assert len(keys) == len(set(keys))


class TestMutation:
    def test_step_moves_one_knob_up(self):
        space = SearchSpace.train_space(_dist_base())
        [overlay] = space.sample(1, random.Random(3))
        stepped = space.step(overlay, "coverage_threshold", +1)
        if stepped is not None:
            assert stepped != overlay
            space.validate(stepped)

    def test_step_after_sample_starts_from_the_sampled_assignment(self):
        knobs = [
            Knob("a", (1, 2, 3), lambda v: {"x.a": v}),
            Knob("b", (10, 20, 30), lambda v: {"x.b": v}),
        ]
        space = SearchSpace(knobs=knobs, validate=lambda ov: ov, flip_prob=1.0)
        overlays = space.sample(4, random.Random(0))
        assert len(overlays) == 4
        for overlay in overlays:
            assert space.assignment_of(overlay) == {"a": overlay["x.a"], "b": overlay["x.b"]}
            stepped = space.step(overlay, "a", +1)
            if overlay["x.a"] == 3:
                assert stepped is None
            else:
                # b keeps its sampled value; the child is remembered too.
                assert stepped == {**overlay, "x.a": overlay["x.a"] + 1}
                assert space.assignment_of(stepped)["b"] == overlay["x.b"]

    def test_step_from_defaults(self):
        space = SearchSpace.train_space(_dist_base())
        stepped = space.step({}, "bucket_mb", +1)
        assert stepped == {"parallel.bucket_mb": 4.0}

    def test_step_at_boundary_returns_none(self):
        space = SearchSpace.train_space(_dist_base())
        assert space.step({}, "bucket_mb", -1) is None

    def test_step_unknown_knob_returns_none(self):
        space = SearchSpace.train_space(_dist_base())
        assert space.step({}, "nope", +1) is None

    def test_invalid_mutation_rejected(self):
        # Stepping precision onto split_bf16 while tiering is on would
        # violate the tiering-requires-fp32 rule; step() must refuse.
        space = SearchSpace.train_space(_dist_base())
        tiered = space.step({}, "tiering", +1)
        assert tiered is not None
        assert space.step(tiered, "precision", +1) is None


class TestServeSpace:
    def test_serve_space_samples_valid_params(self):
        from repro.serve.driver import ServeParams

        space = SearchSpace.serve_space(ServeParams(config="small"))
        overlays = space.sample(5, random.Random(1))
        assert overlays
        for overlay in overlays:
            space.validate(overlay)
