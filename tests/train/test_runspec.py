"""RunSpec: round trips, validation, builders."""

import dataclasses
from pathlib import Path

import pytest

from repro.core.model import DLRM
from repro.core.optim import SGD, SparseAdagrad, SplitSGD
from repro.core.schedule import WarmupDecaySchedule
from repro.data.criteo import SyntheticCriteoDataset
from repro.data.synthetic import RandomRecDataset
from repro.train import RunSpec
from repro.train.spec import ModelSpec

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
COMMITTED_SPECS = sorted(
    [*BENCHMARKS.glob("specs/*.json"), *BENCHMARKS.glob("suite/workloads/*.json")]
)

FULL = {
    "name": "full",
    "model": {
        "config": "mlperf",
        "rows_cap": 1000,
        "minibatch": 64,
        "seed": 9,
        "overrides": {"embedding_dim": 16, "bottom_mlp": [32, 16]},
    },
    "data": {"name": "criteo", "seed": 2, "kwargs": {"alpha": 1.1}},
    "optimizer": {"name": "split_sgd", "lr": 0.2},
    "update": {"name": "atomic"},
    "precision": {"storage": "split_bf16", "lo_bits": 8},
    "parallel": {"ranks": 2, "platform": "node"},
    "schedule": {
        "steps": 10,
        "eval_every": 5,
        "lr_schedule": {"name": "warmup_decay", "peak_lr": 0.2, "warmup_steps": 2},
    },
}


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = RunSpec()
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_full_spec_round_trips(self):
        spec = RunSpec.from_dict(FULL)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_json_lists_normalise_to_tuples(self):
        spec = RunSpec.from_dict(FULL)
        assert spec.model.overrides["bottom_mlp"] == (32, 16)

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = RunSpec.from_dict(FULL)
        spec.save(path)
        assert RunSpec.load(path) == spec

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown sections.*'optimiser'"):
            RunSpec.from_dict({"optimiser": {"name": "sgd"}})

    def test_unknown_key_rejected_with_location(self):
        with pytest.raises(ValueError, match=r"RunSpec\.model.*'depth'"):
            RunSpec.from_dict({"model": {"config": "small", "depth": 3}})


class TestValidation:
    def test_unknown_config(self):
        with pytest.raises(ValueError, match="model.config"):
            RunSpec.from_dict({"model": {"config": "resnet"}})

    @pytest.mark.parametrize("engine", ["cuda", "blocked"])
    def test_unknown_engine_named_at_load(self, engine):
        """Caught when the spec loads, not when the first layer is built."""
        with pytest.raises(ValueError, match=r"model\.engine.*'reference', 'bf16'"):
            RunSpec.from_dict({"model": {"engine": engine}})

    @pytest.mark.parametrize(
        "section,payload,match",
        [
            ("optimizer", {"name": "lamb"}, "optimizer.name"),
            ("data", {"name": "imagenet"}, "data.name"),
            ("update", {"name": "lockfree"}, "update.name"),
            ("precision", {"storage": "fp8"}, "precision.storage"),
        ],
    )
    def test_unregistered_names(self, section, payload, match):
        with pytest.raises(ValueError, match=match):
            RunSpec.from_dict({section: payload})

    def test_split_storage_requires_split_optimizer(self):
        with pytest.raises(ValueError, match="imply each other"):
            RunSpec.from_dict({"precision": {"storage": "split_bf16"}})
        with pytest.raises(ValueError, match="imply each other"):
            RunSpec.from_dict({"optimizer": {"name": "split_sgd"}})

    def test_bad_lr_schedule_name(self):
        with pytest.raises(ValueError, match="lr_schedule.name"):
            RunSpec.from_dict({"schedule": {"lr_schedule": {"name": "cosine"}}})


class TestBuilders:
    def test_build_config_applies_scale_knobs(self):
        spec = RunSpec.from_dict(
            {"model": {"config": "small", "rows_cap": 123, "minibatch": 32}}
        )
        cfg = spec.build_config()
        assert cfg.table_rows == (123,) * 8
        assert (cfg.minibatch, cfg.global_minibatch, cfg.local_minibatch) == (32, 128, 32)

    def test_build_config_overrides(self):
        spec = RunSpec.from_dict(FULL)
        cfg = spec.build_config()
        assert cfg.embedding_dim == 16 and cfg.bottom_mlp == (32, 16)
        assert max(cfg.table_rows) == 1000

    def test_build_model_and_dataset(self):
        spec = RunSpec.from_dict(FULL)
        model = spec.build_model()
        assert isinstance(model, DLRM)
        assert model.storage == "split_bf16"
        assert model.tables[0].lo_bits == 8
        ds = spec.build_dataset()
        assert isinstance(ds, SyntheticCriteoDataset)
        assert ds.alpha == pytest.approx(1.1) and ds.seed == 2
        assert isinstance(RunSpec().build_dataset(), RandomRecDataset)

    def test_build_optimizer_and_strategy(self):
        spec = RunSpec.from_dict(FULL)
        opt = spec.build_optimizer()
        assert isinstance(opt, SplitSGD) and opt.lo_bits == 8
        assert opt.strategy.cost_key == "atomic"
        plain = RunSpec().build_optimizer()
        assert type(plain) is SGD and plain.lr == pytest.approx(0.05)

    def test_optimizer_kwargs_flow_through(self):
        spec = RunSpec.from_dict(
            {"optimizer": {"name": "adagrad", "lr": 0.1, "kwargs": {"eps": 1e-6}}}
        )
        opt = spec.build_optimizer()
        assert isinstance(opt, SparseAdagrad) and opt.eps == pytest.approx(1e-6)

    def test_conflicting_lo_bits_rejected(self):
        spec = RunSpec.from_dict(
            {
                "optimizer": {"name": "split_sgd", "lr": 0.1, "kwargs": {"lo_bits": 4}},
                "precision": {"storage": "split_bf16", "lo_bits": 8},
            }
        )
        with pytest.raises(ValueError, match="lo_bits"):
            spec.build_optimizer()

    def test_build_lr_schedule(self):
        spec = RunSpec.from_dict(FULL)
        sched = spec.build_lr_schedule()
        assert isinstance(sched, WarmupDecaySchedule)
        assert RunSpec().build_lr_schedule() is None

    def test_train_batch_size(self):
        single = RunSpec.from_dict({"model": {"config": "small", "minibatch": 32}})
        assert single.train_batch_size() == 32
        dist = RunSpec.from_dict(
            {"model": {"config": "small", "minibatch": 32}, "parallel": {"ranks": 4}}
        )
        assert dist.train_batch_size() == 128  # the global minibatch
        explicit = RunSpec.from_dict({"schedule": {"batch_size": 48}})
        assert explicit.train_batch_size() == 48

    def test_model_spec_frozen(self):
        spec = ModelSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.config = "large"


class TestWithOverrides:
    def test_single_field(self):
        spec = RunSpec().with_overrides({"parallel.bucket_mb": 8.0})
        assert spec.parallel.bucket_mb == 8.0
        # Untouched sections are shared, not copied semantics: equal values.
        assert spec.model == RunSpec().model

    def test_multiple_sections_and_name(self):
        spec = RunSpec().with_overrides(
            {
                "name": "tuned",
                "data.seed": 4,
                "schedule.steps": 7,
            }
        )
        assert spec.name == "tuned"
        assert spec.data.seed == 4
        assert spec.schedule.steps == 7

    def test_result_revalidates(self):
        with pytest.raises(ValueError, match="imply each other"):
            RunSpec().with_overrides({"precision.storage": "split_bf16"})

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            RunSpec().with_overrides({"parallels.ranks": 2})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown in RunSpec.parallel"):
            RunSpec().with_overrides({"parallel.rank": 2})

    def test_top_level_non_name_rejected(self):
        with pytest.raises(ValueError, match="'name' or 'section.field'"):
            RunSpec().with_overrides({"steps": 5})

    def test_too_deep_path_rejected(self):
        with pytest.raises(ValueError, match="nests too deep"):
            RunSpec().with_overrides({"model.overrides.bottom_mlp": (4,)})

    def test_original_untouched(self):
        base = RunSpec()
        base.with_overrides({"schedule.steps": 999})
        assert base.schedule.steps == RunSpec().schedule.steps

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("data", "prefetch_depth", 1),
            ("update", "threads", 4),
            ("schedule", "checkpoint_every", 0),
            ("schedule", "checkpoint_dir", None),
        ],
    )
    def test_a_retired_key_is_dropped_on_read_only(self, section, key, value):
        """Older specs and checkpoints name it; nothing may set it."""
        old = RunSpec().to_dict()
        old[section][key] = value
        assert RunSpec.from_dict(old) == RunSpec()
        with pytest.raises(ValueError, match=f"unknown in RunSpec.{section}"):
            RunSpec().with_overrides({f"{section}.{key}": value})

    @pytest.mark.parametrize(
        "key,value,successor",
        [
            ("checkpoint_every", 5, "resilience.ring_every"),
            ("checkpoint_dir", "ckpts", "resilience.ring_dir"),
        ],
    )
    def test_a_retired_checkpoint_cadence_is_refused_not_lost(self, key, value, successor):
        old = RunSpec().to_dict()
        old["schedule"][key] = value
        with pytest.raises(ValueError, match=successor):
            RunSpec.from_dict(old)

    @pytest.mark.parametrize("path", COMMITTED_SPECS, ids=lambda p: p.stem)
    def test_every_committed_spec_loads(self, path):
        spec = RunSpec.load(path)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("supervise,restarts", [(False, 0), (True, 2)])
    def test_a_retired_supervise_flag_decides_max_restarts(self, supervise, restarts):
        """A run restarts iff max_restarts > 0, so an old unsupervised
        spec loads with none and a supervised one keeps its count."""
        old = RunSpec().to_dict()
        old["resilience"].update(supervise=supervise, max_restarts=2)
        assert RunSpec.from_dict(old).resilience.max_restarts == restarts
        with pytest.raises(ValueError, match="unknown in RunSpec.resilience"):
            RunSpec().with_overrides({"resilience.supervise": supervise})

    def test_the_spec_has_44_fields(self):
        sections = [f for f in dataclasses.fields(RunSpec) if f.name != "name"]
        assert 1 + sum(len(dataclasses.fields(getattr(RunSpec(), f.name))) for f in sections) == 44
