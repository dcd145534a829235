"""FaultPlan/FaultPoint: parsing, matching, arming, disarm, corrupt_file."""

import pickle
from unittest import mock

import pytest

from repro.resilience.errors import InjectedFault
from repro.resilience.faults import FaultPlan, FaultPoint, corrupt_file
from repro.train import RunSpec, make_trainer


class TestParse:
    def test_round_trip(self):
        text = (
            "worker.step:step=3,worker=1,action=kill;"
            "ckpt.save:step=6,action=corrupt;"
            "comm.exchange:seq=2,action=delay,seconds=0.5,count=3"
        )
        plan = FaultPlan.parse(text)
        assert len(plan) == 3
        assert plan.points[0].site == "worker.step"
        assert plan.points[0].action == "kill"
        assert plan.points[0].step == 3 and plan.points[0].worker == 1
        assert plan.points[2].seconds == 0.5 and plan.points[2].count == 3
        # str() -> parse() is the identity on the points.
        assert FaultPlan.parse(str(plan)).to_dict() == plan.to_dict()
        # dict round trip too.
        assert FaultPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()

    def test_empty_chunks_ignored(self):
        assert len(FaultPlan.parse(";;train.step:step=1,action=raise;")) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "train.step",  # no keys
            "train.step:step=1",  # no action
            "train.step:bogus=1,action=raise",  # unknown key
            ":step=1,action=raise",  # no site
            "train.step:step=,action=raise",  # empty value
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPoint(site="train.step", action="explode")

    def test_plans_are_picklable(self):
        plan = FaultPlan.parse("worker.step:worker=0,step=2,action=kill")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.to_dict() == plan.to_dict()
        # Copies diverge: firing the clone leaves the original armed.
        assert clone.match("worker.step", worker=0, step=2) is not None
        assert plan.points[0].remaining == 1


class TestDisabledHooks:
    """The disabled-path budget as a count: the fault sites stay in the
    step for good, and with no plan armed each stops at its None check."""

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_no_plan_no_fire(self, ranks):
        spec = RunSpec.from_dict({
            "name": "faults-off",
            "model": {"config": "small", "rows_cap": 256, "minibatch": 32},
            "parallel": {"ranks": ranks},
            "schedule": {"steps": 4, "eval_size": 64},
        })
        trainer = make_trainer(spec)
        with mock.patch.object(FaultPlan, "fire", autospec=True) as fire:
            trainer.fit(2)
            assert trainer.faults is None and fire.call_count == 0
            # Armed with a plan that never matches, the same steps reach
            # the step site once each: the hook is on the path.
            trainer.faults = FaultPlan.parse("train.step:step=999,action=raise")
            trainer.fit(2)
        assert [c.args[1] for c in fire.call_args_list] == ["train.step"] * 2


class TestMatching:
    def test_match_pins_only_given_keys(self):
        plan = FaultPlan.parse("worker.step:worker=1,action=raise")
        assert plan.match("worker.step", worker=0, step=5) is None
        assert plan.match("train.step", worker=1) is None
        assert plan.match("worker.step", worker=1, step=5) is not None

    def test_count_arms_n_firings(self):
        plan = FaultPlan.parse("serve.replica:replica=2,action=error,count=2")
        assert plan.match("serve.replica", replica=2) is not None
        assert plan.match("serve.replica", replica=2) is not None
        assert plan.match("serve.replica", replica=2) is None
        assert len(plan.fired) == 2

    def test_fire_raise(self):
        plan = FaultPlan.parse("train.step:step=3,action=raise")
        assert plan.fire("train.step", step=2) is None
        with pytest.raises(InjectedFault, match="train.step"):
            plan.fire("train.step", step=3)

    def test_fire_returns_caller_applied_point(self):
        plan = FaultPlan.parse("mailbox.publish:seq=4,action=torn_write")
        point = plan.fire("mailbox.publish", seq=4)
        assert point is not None and point.action == "torn_write"

    def test_delay_sleeps_then_continues(self):
        plan = FaultPlan.parse("comm.exchange:action=delay,seconds=0.001")
        assert plan.fire("comm.exchange", seq=1).action == "delay"

    def test_disarm_through(self):
        plan = FaultPlan.parse(
            "train.step:step=3,action=raise;"
            "train.step:step=9,action=raise;"
            "serve.replica:replica=0,action=die"
        )
        assert plan.disarm_through(5) == 1  # only the step<=5 point
        assert plan.match("train.step", step=3) is None
        assert plan.match("train.step", step=9) is not None
        assert plan.match("serve.replica", replica=0) is not None


class TestCorruptFile:
    def test_flips_bytes_in_place_deterministically(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 8
        path.write_bytes(payload)
        corrupt_file(path, nbytes=32)
        once = path.read_bytes()
        assert once != payload
        assert len(once) == len(payload)
        # XOR with 0xFF is an involution: corrupting again restores.
        corrupt_file(path, nbytes=32)
        assert path.read_bytes() == payload
