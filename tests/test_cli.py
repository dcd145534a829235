"""CLI: every experiment is addressable and prints a table."""

import re
import zipfile

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    @pytest.mark.parametrize("name", ["table1", "table2", "fig5", "fig7", "fig8"])
    def test_fast_experiments_print_tables(self, name, capsys):
        assert main([name]) == 0
        out = capsys.readouterr().out
        assert EXPERIMENTS[name][0].split(":")[0] in out
        assert "---" in out  # a rendered table separator

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        assert "GEMM" in capsys.readouterr().out or True

    def test_fig9_single_config(self, capsys):
        assert main(["fig9", "--config", "small"]) == 0
        out = capsys.readouterr().out
        assert "small" in out and "large" not in out

    def test_fig15(self, capsys):
        assert main(["fig15"]) == 0
        assert "ranks" in capsys.readouterr().out

    def test_iteration_subcommand(self, capsys):
        assert main(
            ["iteration", "--config", "mlperf", "--ranks", "8", "--backend", "mpi"]
        ) == 0
        out = capsys.readouterr().out
        assert "mlperf" in out and "mpi" in out

    def test_iteration_validates_config(self):
        with pytest.raises(SystemExit):
            main(["iteration", "--config", "resnet"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_serve_subcommand(self, capsys):
        assert main(
            [
                "serve", "--requests", "100", "--policy", "adaptive",
                "--budgets-ms", "1", "5", "--replicas", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "p99_ms" in out and "adaptive" in out
        assert "Throughput-under-SLA frontier" in out

    def test_serve_validates_policy(self):
        with pytest.raises(SystemExit):
            main(["serve", "--policy", "fifo"])

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--fault", "serve.replica:replica=1,action=die",
              "--breaker-cooldown-ms", "-50"], "cooldown_s must be >= 0"),
            (["--fault", "serve.replica:replica=1,action=die",
              "--error-threshold", "0"], "error_threshold must be >= 1"),
            (["--error-threshold", "0"], "error_threshold must be >= 1"),
            (["--retry-attempts", "2"], "give a fault plan"),
        ],
    )
    def test_serve_validates_degradation_flags(self, flags, message):
        with pytest.raises(SystemExit, match=message):
            main(["serve", "--config", "small", "--requests", "40", *flags])

    def test_fig16_tiny(self, capsys):
        assert main(
            ["fig16", "--epoch-batches", "4", "--eval-points", "2"]
        ) == 0
        assert "fp32_auc" in capsys.readouterr().out


class TestTrainEvalCli:
    @pytest.fixture
    def spec_path(self, tmp_path):
        from repro.train import RunSpec

        path = tmp_path / "spec.json"
        RunSpec.from_dict(
            {
                "name": "cli-test",
                "model": {"config": "small", "rows_cap": 200, "minibatch": 16},
                "schedule": {"steps": 2, "eval_size": 64},
            }
        ).save(path)
        return path

    def test_train_from_spec_writes_checkpoint(self, spec_path, tmp_path, capsys):
        ckpt = tmp_path / "run.npz"
        assert main(["train", "--spec", str(spec_path), "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out and "final_loss" in out
        assert ckpt.exists()

    def test_train_resume_continues_step_count(self, spec_path, tmp_path, capsys):
        ckpt = tmp_path / "run.npz"
        main(["train", "--spec", str(spec_path), "--checkpoint", str(ckpt)])
        capsys.readouterr()
        assert main(
            ["train", "--resume", str(ckpt), "--steps", "2",
             "--checkpoint", str(ckpt)]
        ) == 0
        out = capsys.readouterr().out
        # The summary row: 2 steps this run, global_step 4 after 2 + 2.
        assert re.search(r"cli-test\s+2\s+4\s", out)

    @staticmethod
    def final_loss(out: str) -> str:
        """The summary row's final_loss, as printed."""
        return re.search(r"cli-test\s+\d+\s+\d+\s+(\S+)", out)[1]

    def test_train_restarts_after_a_fault(self, spec_path, tmp_path, capsys):
        from repro.obs.export import SchemaMismatch, read_versioned_jsonl
        from repro.resilience import EVENTS_KIND, EVENTS_SCHEMA

        main(["train", "--spec", str(spec_path), "--steps", "6"])
        clean = self.final_loss(capsys.readouterr().out)
        events = tmp_path / "events.jsonl"
        assert main(
            ["train", "--spec", str(spec_path), "--steps", "6", "--max-restarts", "1",
             "--fault", "train.step:step=3,action=raise", "--ring-every", "2",
             "--ring-dir", str(tmp_path / "ring"), "--events-jsonl", str(events)]
        ) == 0
        out = capsys.readouterr().out
        assert "Recovery events (1 restarts)" in out and "InjectedFault" in out
        assert self.final_loss(out) == clean
        _, records = read_versioned_jsonl(events, EVENTS_KIND, "events_schema", EVENTS_SCHEMA)
        assert [r["event"] for r in records] == ["failure", "respawn", "restore"]
        assert records[-1]["step"] == 2
        with pytest.raises(SchemaMismatch):
            read_versioned_jsonl(events, EVENTS_KIND, "events_schema", EVENTS_SCHEMA + 1)

    def test_a_resumed_run_restarts_from_its_checkpoint(self, spec_path, tmp_path, capsys):
        """No ring entry precedes the step-3 fault, so the restart
        restores the checkpoint the run resumed from."""
        from repro.obs.export import read_versioned_jsonl
        from repro.resilience import EVENTS_KIND, EVENTS_SCHEMA
        from repro.train import load_checkpoint

        start, clean, chaos = (tmp_path / f"{n}.npz" for n in ("start", "clean", "chaos"))
        main(["train", "--spec", str(spec_path), "--checkpoint", str(start)])
        capsys.readouterr()
        main(["train", "--resume", str(start), "--steps", "4", "--checkpoint", str(clean)])
        want = self.final_loss(capsys.readouterr().out)
        assert main(
            ["train", "--resume", str(start), "--steps", "4", "--max-restarts", "1",
             "--fault", "train.step:step=3,action=raise", "--ring-every", "2",
             "--ring-dir", str(tmp_path / "ring"), "--checkpoint", str(chaos),
             "--events-jsonl", str(tmp_path / "events.jsonl")]
        ) == 0
        out = capsys.readouterr().out
        assert re.search(r"cli-test\s+4\s+6\s", out) and self.final_loss(out) == want
        _, records = read_versioned_jsonl(
            tmp_path / "events.jsonl", EVENTS_KIND, "events_schema", EVENTS_SCHEMA
        )
        assert records[-1] == {**records[-1], "event": "restore", "step": 2, "path": None}
        a, b = load_checkpoint(chaos), load_checkpoint(clean)
        for left, right in ((a.model_state, b.model_state), (a.opt_state, b.opt_state)):
            assert all(np.array_equal(left[k], right[k]) for k in right)

    def test_train_requires_spec_or_resume(self):
        with pytest.raises(SystemExit, match="need --spec or --resume"):
            main(["train"])

    def test_eval_checkpoint(self, spec_path, tmp_path, capsys):
        ckpt = tmp_path / "run.npz"
        main(["train", "--spec", str(spec_path), "--checkpoint", str(ckpt)])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "auc" in out and "mean_ctr" in out

    def test_serve_from_checkpoint(self, spec_path, tmp_path, capsys):
        ckpt = tmp_path / "run.npz"
        main(["train", "--spec", str(spec_path), "--checkpoint", str(ckpt)])
        capsys.readouterr()
        assert main(
            ["serve", "--checkpoint", str(ckpt), "--requests", "40",
             "--replicas", "2", "--budgets-ms", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Functional scoring with trained weights" in out
        assert "Serving small" in out  # sweep aligned to the checkpoint config

    @pytest.mark.parametrize(
        "argv", [["eval", "--batch-size", "64"], ["serve", "--requests", "40", "--budgets-ms", "2"]]
    )
    def test_a_checkpoint_command_reads_the_archive_once(
        self, argv, spec_path, tmp_path, capsys, monkeypatch
    ):
        """One open, and every member read at most once: the header the
        command prints and the engine it builds come from one pass."""
        from collections import Counter

        from repro.train.checkpoint import Archive

        ckpt = tmp_path / "run.npz"
        main(["train", "--spec", str(spec_path), "--checkpoint", str(ckpt)])
        capsys.readouterr()
        opens, reads = [], Counter()
        real_init, real_get = Archive.__init__, Archive.__getitem__

        def spy_init(self, *args, **kwargs):
            opens.append(args[0])
            real_init(self, *args, **kwargs)

        def spy_get(self, key):
            reads[key] += 1
            return real_get(self, key)

        monkeypatch.setattr(Archive, "__init__", spy_init)
        monkeypatch.setattr(Archive, "__getitem__", spy_get)
        assert main([argv[0], "--checkpoint", str(ckpt), *argv[1:]]) == 0
        assert opens == [str(ckpt)]
        assert max(reads.values()) == 1, reads
        with zipfile.ZipFile(ckpt) as zf:
            members = {info.filename.removesuffix(".npy") for info in zf.infolist()}
        assert {key for key in members if key.startswith("model.")} <= set(reads)


class TestPlanSubcommand:
    @pytest.fixture
    def tiered_spec_path(self, tmp_path):
        from repro.train import RunSpec

        path = tmp_path / "spec.json"
        RunSpec.from_dict(
            {
                "name": "plan-test",
                "model": {"config": "small", "rows_cap": 300, "minibatch": 16},
                "data": {"name": "criteo", "seed": 1},
                "parallel": {"ranks": 2, "placement": "auto"},
                "tiering": {
                    "enabled": True, "hot_rows": 32,
                    "min_table_rows": 64, "coverage_threshold": 0.05,
                },
                "schedule": {"steps": 2},
            }
        ).save(path)
        return path

    def test_plan_prints_rank_summary(self, tiered_spec_path, capsys):
        assert main(["plan", "--spec", str(tiered_spec_path)]) == 0
        out = capsys.readouterr().out
        assert "plan-test" in out and "auto" in out
        assert "hot_mb" in out and "gather_ms" in out
        assert "memory imbalance" in out

    def test_plan_tables_flag(self, tiered_spec_path, capsys):
        assert main(["plan", "--spec", str(tiered_spec_path), "--tables"]) == 0
        out = capsys.readouterr().out
        assert "hot_cold" in out and "coverage" in out

    def test_plan_overrides(self, tiered_spec_path, capsys):
        assert main(
            ["plan", "--spec", str(tiered_spec_path),
             "--placement", "round_robin", "--ranks", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "round_robin" in out and "4 rank(s)" in out

    def test_plan_requires_spec_file(self):
        with pytest.raises(SystemExit):
            main(["plan", "--spec", "/nonexistent.json"])

    @pytest.mark.parametrize("placement", ["round_robin", "auto"])
    def test_plan_prints_the_trainers_owners(self, tmp_path, capsys, placement):
        from repro.parallel.placement import placement_stats
        from repro.train import RunSpec, Trainer

        spec = RunSpec.from_dict({
            "name": "owners",
            "model": {"config": "small", "minibatch": 16, "overrides": {
                "table_rows": [200, 1600, 400, 1400, 600, 1200, 800, 1000],
            }},
            "data": {"name": "criteo", "seed": 1},
            "parallel": {"ranks": 4, "placement": placement},
            "tiering": {"enabled": True, "hot_rows": 32, "min_table_rows": 64},
        })
        spec.save(tmp_path / "spec.json")
        assert main(["plan", "--spec", str(tmp_path / "spec.json"), "--tables"]) == 0
        by_rank, by_table = capsys.readouterr().out.split("Per-table storage plan")
        trainer = Trainer.from_spec(spec)
        try:
            owners = list(trainer.dist.owners)
        finally:
            trainer.close()
        # Tiering plans owners whatever the placement names ...
        assert owners != [t % 4 for t in range(8)]
        # ... and both of the plan's tables print them.
        assert [int(line.split()[1]) for line in by_table.strip().splitlines()[2:]] == owners
        stats = placement_stats(spec.build_config(), owners, 4)
        for r, line in enumerate(by_rank.strip().splitlines()[3:]):
            rank, tables, embedding_mb = line.split()[:3]
            assert (int(rank), int(tables)) == (r, owners.count(r))
            assert float(embedding_mb) == pytest.approx(stats.bytes_per_rank[r] / 2**20, rel=1e-2)

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--placement", "bogus"], "parallel.placement 'bogus' not registered"),
            (["--ranks", "9"], "9 ranks > 8 tables"),
        ],
        ids=["placement", "ranks"],
    )
    def test_plan_rejects_a_bad_flag_in_one_line(self, tiered_spec_path, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--spec", str(tiered_spec_path), *flags])
        assert str(exc.value).startswith("repro plan: ") and message in str(exc.value)

    def test_train_rejects_a_bucket_cap_the_spec_would(self, tmp_path):
        from repro.train import RunSpec

        path = tmp_path / "dist.json"
        RunSpec.from_dict({"name": "b", "parallel": {"ranks": 2}}).save(path)
        with pytest.raises(SystemExit, match="repro train: parallel.bucket_mb must be positive"):
            main(["train", "--spec", str(path), "--bucket-mb", "0"])

    def test_train_prints_placement_stats(self, tmp_path, capsys):
        from repro.train import RunSpec

        path = tmp_path / "dist.json"
        RunSpec.from_dict(
            {
                "name": "cli-dist",
                "model": {"config": "small", "rows_cap": 200, "minibatch": 16},
                "parallel": {"ranks": 2},
                "schedule": {"steps": 2, "eval_size": 64},
            }
        ).save(path)
        assert main(["train", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Placement (round_robin)" in out and "memory" in out


class TestTuneCli:
    @pytest.fixture
    def quick_spec(self, tmp_path):
        from repro.train import RunSpec

        path = tmp_path / "tune.json"
        RunSpec.from_dict(
            {
                "name": "cli-tune",
                "model": {"config": "small", "rows_cap": 128, "minibatch": 16},
                "parallel": {"ranks": 2, "platform": "node"},
                "update": {"name": "racefree"},
                "schedule": {"steps": 4, "eval_size": 32},
            }
        ).save(path)
        return path

    def test_tune_prints_ranking_and_winner(self, quick_spec, tmp_path, capsys):
        out_spec = tmp_path / "tuned.json"
        report = tmp_path / "report.jsonl"
        assert (
            main(
                [
                    "tune", "--spec", str(quick_spec), "--budget", "3",
                    "--seed", "0", "--rung-steps", "1", "--max-rungs", "2",
                    "--warmup", "1", "--out", str(out_spec),
                    "--report", str(report),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Tuning ranking" in out and "baseline" in out
        assert "winning configuration" in out
        assert out_spec.exists() and report.exists()

    def test_tune_winning_spec_is_trainable(self, quick_spec, tmp_path, capsys):
        out_spec = tmp_path / "tuned.json"
        assert (
            main(
                [
                    "tune", "--spec", str(quick_spec), "--budget", "2",
                    "--rung-steps", "1", "--max-rungs", "1", "--warmup", "0",
                    "--out", str(out_spec),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["train", "--spec", str(out_spec)]) == 0
        assert "final_loss" in capsys.readouterr().out

    def test_tune_report_round_trips(self, quick_spec, tmp_path, capsys):
        from repro.tune.report import TUNE_SCHEMA

        from tests.tune.report_reader import read_report

        report = tmp_path / "report.jsonl"
        assert (
            main(
                [
                    "tune", "--spec", str(quick_spec), "--budget", "2",
                    "--rung-steps", "1", "--max-rungs", "1", "--warmup", "0",
                    "--report", str(report),
                ]
            )
            == 0
        )
        capsys.readouterr()
        header, records = read_report(report)
        assert header["tune_schema"] == TUNE_SCHEMA
        assert any(r["type"] == "result" for r in records)

    def test_tune_requires_spec(self):
        with pytest.raises(SystemExit, match="--spec"):
            main(["tune", "--budget", "2"])

    def test_tune_validates_budget(self, quick_spec):
        with pytest.raises(SystemExit, match="--budget"):
            main(["tune", "--spec", str(quick_spec), "--budget", "1"])

    def test_tune_serve_mode(self, capsys):
        assert (
            main(
                [
                    "tune", "--serve", "--config", "small", "--budget", "2",
                    "--rung-steps", "64", "--max-rungs", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "qps" in out and "winning configuration" in out

    def test_train_help_mentions_perf_knobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        assert "--bucket-mb" in out and "tiering" in out
