"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli table2
    python -m repro.cli fig7
    python -m repro.cli fig9 --config large
    python -m repro.cli fig16 --epoch-batches 40 --eval-points 10
    python -m repro.cli iteration --config mlperf --ranks 16 --backend ccl
    python -m repro.cli train --spec spec.json --checkpoint run.npz --workers 4
    python -m repro.cli train --spec spec.json --backend process --workers 2 --trace out.json
    python -m repro.cli train --spec spec.json --bucket-mb 8 --trace-jsonl run.jsonl
    python -m repro.cli tune --spec spec.json --budget 8 --seed 0 --out tuned.json
    python -m repro.cli tune --serve --config mlperf --sla-ms 5
    python -m repro.cli trace run.jsonl --chrome run_trace.json
    python -m repro.cli eval --checkpoint run.npz
    python -m repro.cli serve --checkpoint run.npz

Each experiment prints the same paper-vs-model table the benchmark
harness writes to ``benchmarks/results/``.  ``train``/``eval`` drive the
:mod:`repro.train` experiment API from a RunSpec JSON file; ``serve``
accepts a training checkpoint to score with trained weights.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.bench import (
    run_fig5_mlp_kernels,
    run_fig6_overlap,
    run_fig7_single_socket,
    run_fig8_breakdown,
    run_fig9_strong_scaling,
    run_fig10_compute_comm,
    run_fig11_comm_breakdown,
    run_fig12_weak_scaling,
    run_fig13_compute_comm_weak,
    run_fig14_comm_breakdown_weak,
    run_fig15_8socket,
    run_fig16_convergence,
    run_table1,
    run_table2,
)
from repro.parallel.timing import model_iteration
from repro.util import format_table

Rows = list[dict[str, object]]


def _configs(args: argparse.Namespace) -> tuple[str, ...]:
    return (args.config,) if args.config else ("small", "large", "mlperf")


#: Experiments addressable by name: (title, parsed arguments -> table rows).
EXPERIMENTS: dict[str, tuple[str, Callable[[argparse.Namespace], Rows]]] = {
    "table1": ("Table I: DLRM model specifications", lambda a: run_table1()),
    "table2": ("Table II: distributed-run characteristics (Eq. 1/2)", lambda a: run_table2()),
    "fig5": ("Fig. 5: single-socket MLP kernel performance", lambda a: run_fig5_mlp_kernels()),
    "fig6": ("Fig. 6: MLP GEMM/SGD communication overlap", lambda a: run_fig6_overlap()[1]),
    "fig7": ("Fig. 7: single-socket DLRM time per iteration", lambda a: run_fig7_single_socket()),
    "fig8": ("Fig. 8: time split across Embeddings/MLP/Rest", lambda a: run_fig8_breakdown()),
    "fig9": (
        "Fig. 9: strong-scaling speedup & efficiency",
        lambda a: run_fig9_strong_scaling(_configs(a)),
    ),
    "fig10": (
        "Fig. 10: compute/comm split (strong scaling)",
        lambda a: run_fig10_compute_comm(a.config),
    ),
    "fig11": (
        "Fig. 11: communication breakdown (strong scaling)",
        lambda a: run_fig11_comm_breakdown(a.config),
    ),
    "fig12": (
        "Fig. 12: weak-scaling speedup & efficiency",
        lambda a: run_fig12_weak_scaling(_configs(a)),
    ),
    "fig13": (
        "Fig. 13: compute/comm split (weak scaling)",
        lambda a: run_fig13_compute_comm_weak(a.config),
    ),
    "fig14": (
        "Fig. 14: communication breakdown (weak scaling)",
        lambda a: run_fig14_comm_breakdown_weak(a.config),
    ),
    "fig15": ("Fig. 15: 8-socket shared-memory node scaling", lambda a: run_fig15_8socket()),
    "fig16": (
        "Fig. 16: Split-SGD-BF16 convergence (functional training)",
        lambda a: run_fig16_convergence(
            epoch_batches=a.epoch_batches, eval_points=a.eval_points, lr=a.lr
        ).rows(),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from Kalamkar et al., SC 2020.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list all experiments")
    for name, (title, _) in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=title)
        if name in ("fig9", "fig12"):
            sp.add_argument(
                "--config", choices=["small", "large", "mlperf"], default=None,
                help="restrict to one configuration",
            )
        if name in ("fig10", "fig11", "fig13", "fig14"):
            sp.add_argument(
                "--config", choices=["large", "mlperf"], default="large"
            )
        if name == "fig16":
            sp.add_argument("--epoch-batches", type=int, default=60)
            sp.add_argument("--eval-points", type=int, default=12)
            sp.add_argument("--lr", type=float, default=0.15)
    it = sub.add_parser(
        "iteration", help="model one training iteration at paper scale"
    )
    it.add_argument("--config", choices=["small", "large", "mlperf"], required=True)
    it.add_argument("--ranks", type=int, default=1)
    it.add_argument("--backend", choices=["mpi", "ccl", "local"], default="ccl")
    it.add_argument("--exchange", choices=["scatterlist", "fused", "alltoall"], default="alltoall")
    it.add_argument("--update", choices=["reference", "atomic", "rtm", "racefree", "fused"], default="racefree")
    it.add_argument("--platform", choices=["node", "cluster"], default="cluster")
    it.add_argument("--blocking", action="store_true")
    sv = sub.add_parser(
        "serve",
        help="simulate batched inference serving: throughput vs p99 latency",
    )
    sv.add_argument("--config", choices=["small", "large", "mlperf"], default="mlperf")
    sv.add_argument("--requests", type=int, default=2000)
    sv.add_argument("--qps", type=float, default=4000.0, help="mean arrival rate")
    sv.add_argument("--policy", choices=["static", "dynamic", "adaptive"], default="dynamic")
    sv.add_argument(
        "--router", choices=["round_robin", "least_loaded", "cache_affinity"],
        default="least_loaded",
    )
    sv.add_argument("--replicas", type=int, default=4)
    sv.add_argument("--max-batch", type=int, default=256, help="batch close threshold (samples)")
    sv.add_argument(
        "--budgets-ms", type=float, nargs="+", default=[1.0, 2.0, 5.0, 10.0, 20.0],
        help="latency budgets swept by the micro-batcher",
    )
    sv.add_argument("--cache-rows", type=int, default=8192)
    sv.add_argument("--cache-policy", choices=["lru", "lfu"], default="lru")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument(
        "--checkpoint", default=None, metavar="NPZ",
        help="score a held-out batch with the trained weights of this "
        "repro.train checkpoint (and align the sweep to its config)",
    )
    sv.add_argument(
        "--fault", metavar="PLAN", default="",
        help="inject replica failures and serve through them: a fault-plan "
        "string like 'serve.replica:replica=1,action=die' (actions die/"
        "slow/error; see repro.resilience.faults). Turns hedging and load "
        "shedding on and reports the shed rate",
    )
    sv.add_argument(
        "--error-threshold", type=int, default=3,
        help="consecutive replica errors that open its circuit breaker",
    )
    sv.add_argument(
        "--breaker-cooldown-ms", type=float, default=10.0,
        help="virtual-time cooldown before an opened breaker half-opens",
    )
    sv.add_argument(
        "--retry-attempts", type=int, default=3,
        help="dispatch attempts per micro-batch (first try + retries)",
    )
    tr = sub.add_parser(
        "train",
        help="train a DLRM from a RunSpec JSON (repro.train)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "performance knobs (every combination trains bit-identically):\n"
            "  --backend/--workers   execution substrate and pool width\n"
            "  --bucket-mb           issue-as-ready allreduce bucket cap\n"
            "  spec data.prefetch_depth      batches synthesized ahead\n"
            "  spec tiering.enabled / parallel.placement=auto\n"
            "                        hot/cold embedding storage + planner-\n"
            "                        chosen table owners\n"
            "Run 'repro tune --spec <json>' to search these automatically;\n"
            "docs/TUNING.md documents each knob's perf effect."
        ),
    )
    tr.add_argument("--spec", metavar="JSON", help="path to a RunSpec JSON file")
    tr.add_argument(
        "--backend", choices=["thread", "process"], default=None,
        help="execution substrate for distributed runs: 'thread' = the "
        "process-wide worker pool, 'process' = shared-memory worker "
        "processes (repro.exec.mp); default: the spec's "
        "parallel.exec_backend",
    )
    tr.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool width N (thread backend: the static shards of parallel "
        "ranks and sharded kernels, run on the caller and up to N-1 "
        "helper threads, the first of which also builds the batch "
        "prefetch) or worker processes (process backend); default: 1 / "
        "one process per rank",
    )
    tr.add_argument(
        "--bucket-mb", type=float, default=None, metavar="MB",
        help="gradient-bucket size cap for the issue-as-ready allreduce "
        "(MiB of FP32 gradients per bucket; distributed runs only). "
        "Bucketing changes only *when* communication is issued, never "
        "the summation tree, so any value is bit-identical; default: "
        "the spec's parallel.bucket_mb",
    )
    tr.add_argument(
        "--resume", metavar="NPZ", help="resume from a checkpoint (spec embedded)"
    )
    tr.add_argument(
        "--steps", type=int, default=None,
        help="train this many steps (default: the spec's remaining budget)",
    )
    tr.add_argument(
        "--checkpoint", metavar="NPZ", help="write the final checkpoint here"
    )
    tr.add_argument(
        "--trace", metavar="JSON", default=None,
        help="record wall-clock pipeline spans and write a Chrome "
        "trace_event file here (open in Perfetto / chrome://tracing); "
        "under the process backend the timeline merges every worker, "
        "rank-attributed by process lane",
    )
    tr.add_argument(
        "--trace-jsonl", metavar="JSONL", default=None,
        help="also/instead write the raw span records as versioned JSONL "
        "(the lossless format 'repro trace' reads back)",
    )
    tr.add_argument(
        "--fault", metavar="PLAN", default=None,
        help="arm a deterministic fault plan: 'site:key=val,...;...' "
        "(sites train.step / worker.step / comm.exchange / "
        "mailbox.publish / ckpt.save; actions kill/hang/raise/delay/"
        "torn_write/corrupt; see repro.resilience.faults)",
    )
    tr.add_argument(
        "--supervise", action="store_true",
        help="run under the resilience supervisor: catch worker failures, "
        "respawn, restore from the checkpoint ring and replay "
        "bit-exactly (requires --ring-every or the spec's "
        "resilience.ring_every for checkpointed recovery)",
    )
    tr.add_argument(
        "--ring-dir", metavar="DIR", default=None,
        help="checkpoint-ring directory (default: checkpoints/<run>-ring)",
    )
    tr.add_argument(
        "--ring-every", type=int, default=None, metavar="STEPS",
        help="write a ring checkpoint every N steps (0 disables the ring)",
    )
    tr.add_argument(
        "--ring-keep", type=int, default=None, metavar="K",
        help="retained ring entries; corrupt ones are quarantined and "
        "recovery falls back to the previous entry",
    )
    tr.add_argument(
        "--events-jsonl", metavar="JSONL", default=None,
        help="write the supervisor's recovery events as JSONL "
        "(--supervise only)",
    )
    tn = sub.add_parser(
        "tune",
        help="search RunSpec performance knobs by successive halving "
        "(repro.tune)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Scores are measured short runs through the real trainer.  With\n"
            "--measure virtual (default) ranking uses the deterministic\n"
            "simulated-cluster clocks plus cost-model substrate terms, so a\n"
            "fixed --seed/--budget reproduces the identical winner and\n"
            "scores on any machine; --measure wall ranks by wall-clock on\n"
            "this machine instead.  The all-defaults arm always reaches the\n"
            "final rung, so the winner is never worse than doing nothing."
        ),
    )
    tn.add_argument("--spec", metavar="JSON", help="base RunSpec JSON file (train mode)")
    tn.add_argument(
        "--serve", action="store_true",
        help="tune serving knobs (batcher policy, router, replicas, cache) "
        "for QPS under a p99 SLA instead of training throughput",
    )
    tn.add_argument(
        "--config", choices=["small", "large", "mlperf"], default="mlperf",
        help="model config for --serve mode",
    )
    tn.add_argument("--qps", type=float, default=4000.0, help="--serve mean arrival rate")
    tn.add_argument(
        "--sla-ms", type=float, default=5.0,
        help="--serve p99 SLA: arms over it rank by how far over they are",
    )
    tn.add_argument("--budget", type=int, default=8, help="arms in the starting pool")
    tn.add_argument("--seed", type=int, default=0, help="arm-sampling seed")
    tn.add_argument(
        "--eta", type=int, default=2,
        help="halving rate: keep ceil(n/eta) arms per rung, multiply steps by eta",
    )
    tn.add_argument(
        "--rung-steps", type=int, default=2, metavar="N",
        help="measured steps at rung 0 (serve mode: requests = max(64, N))",
    )
    tn.add_argument("--max-rungs", type=int, default=3)
    tn.add_argument(
        "--warmup", type=int, default=2,
        help="untimed steps discarded before each measured window",
    )
    tn.add_argument(
        "--measure", choices=["virtual", "wall"], default="virtual",
        help="scoring clock: deterministic virtual (default) or wall-clock",
    )
    tn.add_argument(
        "--mutants", type=int, default=1,
        help="bottleneck-steered children spawned per rung from top survivors",
    )
    tn.add_argument(
        "--out", metavar="JSON", default=None,
        help="write the winning RunSpec here ('repro train --spec' accepts it)",
    )
    tn.add_argument(
        "--report", metavar="JSONL", default=None,
        help="write the TUNE_SCHEMA-versioned tuning report (arms, trials, "
        "eliminations, winner) here",
    )
    pl = sub.add_parser(
        "plan",
        help="preview the embedding placement & tiering plan of a RunSpec",
    )
    pl.add_argument("--spec", required=True, metavar="JSON", help="RunSpec JSON file")
    pl.add_argument(
        "--ranks", type=int, default=None, help="override parallel.ranks"
    )
    pl.add_argument(
        "--placement", default=None,
        help="override parallel.placement (round_robin / balanced / auto)",
    )
    pl.add_argument(
        "--tables", action="store_true",
        help="also print the per-table plan (mode, hot rows, coverage)",
    )
    tc = sub.add_parser(
        "trace", help="inspect a trace JSONL: per-stage table, Chrome export"
    )
    tc.add_argument("jsonl", metavar="JSONL", help="a --trace-jsonl output file")
    tc.add_argument(
        "--chrome", metavar="JSON", default=None,
        help="convert to a Chrome trace_event file",
    )
    ev = sub.add_parser("eval", help="evaluate a repro.train checkpoint")
    ev.add_argument("--checkpoint", required=True, metavar="NPZ")
    ev.add_argument("--batch-size", type=int, default=2048)
    ev.add_argument(
        "--batch-index", type=int, default=10_000_000,
        help="held-out dataset index (default far past any training step)",
    )
    return p


def _require_file(path: str, what: str) -> None:
    import pathlib

    if not pathlib.Path(path).is_file():
        raise SystemExit(f"{what}: file {path!r} not found")


def _dispatch(args: argparse.Namespace) -> str:
    name = args.command
    if name == "list":
        rows = [{"experiment": k, "description": v[0]} for k, v in EXPERIMENTS.items()]
        return format_table(rows, title="Available experiments")
    if name in EXPERIMENTS:
        title, rows_fn = EXPERIMENTS[name]
        return format_table(rows_fn(args), title=title)
    if name == "train":
        from repro.train import RunSpec, Trainer
        from repro.train.callbacks import StepTimer

        if not args.spec and not args.resume:
            raise SystemExit("repro train: need --spec or --resume")
        if args.resume:
            from repro.train import load_checkpoint

            _require_file(args.resume, "repro train --resume")
            ckpt = load_checkpoint(args.resume)
            spec = ckpt.require_spec()
        else:
            _require_file(args.spec, "repro train --spec")
            spec = RunSpec.load(args.spec)
            ckpt = None
        distributed = spec.parallel.ranks > 1
        overrides: dict[str, object] = {}
        if args.bucket_mb is not None:
            if not distributed:
                raise SystemExit(
                    "repro train: --bucket-mb only applies to distributed "
                    "specs (parallel.ranks > 1)"
                )
            overrides["parallel.bucket_mb"] = args.bucket_mb
        for flag, field in (
            ("backend", "parallel.exec_backend"),
            ("workers", "parallel.exec_workers"),
            ("fault", "resilience.faults"),
            ("ring_dir", "resilience.ring_dir"),
            ("ring_every", "resilience.ring_every"),
            ("ring_keep", "resilience.ring_keep"),
        ):
            if getattr(args, flag) is not None:
                overrides[field] = getattr(args, flag)
        if args.supervise:
            overrides["resilience.supervise"] = True
        if overrides:
            try:
                spec = spec.with_overrides(overrides)
            except ValueError as exc:
                raise SystemExit(f"repro train: {exc}") from exc
            if ckpt is not None:
                ckpt.spec = spec
        supervised = spec.resilience.supervise
        if supervised and args.resume:
            raise SystemExit(
                "repro train: --supervise restores from its checkpoint "
                "ring, not --resume"
            )
        if supervised and args.steps is not None:
            raise SystemExit(
                "repro train: --supervise always runs the spec's full "
                "remaining budget; --steps does not apply"
            )
        tracing = bool(args.trace or args.trace_jsonl)
        if tracing:
            from repro.obs import Tracer, set_tracer

            # Installed before the trainer is built: the process backend
            # captures the switch at executor construction to decide
            # whether workers install their own tracers.
            set_tracer(Tracer(proc="main"))
        trainer = None
        try:
            if supervised:
                from repro.resilience.supervisor import Supervisor

                sup = Supervisor(spec)
                report = sup.run()
                trainer = sup.trainer
                row = {
                    "run": spec.name,
                    "steps": len(report.losses),
                    "global_step": report.final_step,
                    "restarts": report.restarts,
                    "final_loss": report.losses[-1] if report.losses else float("nan"),
                    **trainer.evaluate(),
                }
                out = format_table([row], title=f"Supervised training run '{spec.name}'")
                if report.events:
                    erows = [
                        {
                            "event": e["event"],
                            "restart": e.get("restart", ""),
                            "step": e.get("step", ""),
                            "detail": e.get("error", e.get("path", e.get("disarmed", ""))),
                        }
                        for e in report.events
                    ]
                    out += "\n\n" + format_table(erows, title="Recovery events")
                if report.checkpoint:
                    out += f"\n\nring checkpoint: {report.checkpoint}"
                if args.events_jsonl:
                    path = report.write_events(args.events_jsonl)
                    out += f"\nrecovery events written to {path}"
            else:
                timer = StepTimer()
                trainer = (
                    Trainer.from_checkpoint(ckpt, callbacks=[timer])
                    if ckpt is not None
                    else Trainer.from_spec(spec, callbacks=[timer])
                )
                start = trainer.step
                trainer.fit(args.steps)
                steps_per_s = (
                    len(timer.times) / timer.total_s if timer.total_s > 0 else float("nan")
                )
                row = {
                    "run": spec.name,
                    "steps": trainer.step - start,
                    "global_step": trainer.step,
                    "final_loss": trainer.losses[-1] if trainer.losses else float("nan"),
                    "steps_per_s": steps_per_s,
                    "rows_per_s": steps_per_s * trainer.batch_size,
                    **trainer.evaluate(),
                }
                out = format_table([row], title=f"Training run '{spec.name}'")
                out += "\n\n" + timer.summary()
                if distributed:
                    from repro.parallel.placement import placement_stats

                    dist = trainer.dist
                    n_ranks = dist.cluster.n_ranks
                    pstats = placement_stats(dist.cfg, dist.owners, n_ranks)
                    prow = [
                        {
                            "rank": r,
                            "tables": pstats.tables_per_rank[r],
                            "embedding_mb": pstats.bytes_per_rank[r] / 2**20,
                        }
                        for r in range(n_ranks)
                    ]
                    out += "\n\n" + format_table(
                        prow,
                        title=(
                            f"Placement ({spec.parallel.placement}): memory "
                            f"imbalance {pstats.memory_imbalance:.2f}"
                        ),
                    )
            if tracing:
                from repro.obs.aggregate import stage_table
                from repro.obs.export import write_chrome_trace, write_jsonl

                spans = trainer.drain_trace_spans()
                out += "\n\n" + format_table(
                    stage_table(spans), title="Per-stage wall-clock breakdown"
                )
                if args.trace:
                    n = write_chrome_trace(spans, args.trace)
                    out += f"\n\ntrace: {n} spans written to {args.trace}"
                if args.trace_jsonl:
                    n = write_jsonl(spans, args.trace_jsonl)
                    out += f"\ntrace: {n} spans written to {args.trace_jsonl}"
            if args.checkpoint:
                trainer.save_checkpoint(args.checkpoint)
                out += f"\n\ncheckpoint written to {args.checkpoint}"
        finally:
            if trainer is not None:
                trainer.close()
            if tracing:
                set_tracer(None)
        return out
    if name == "tune":
        import math

        from repro.tune.priors import prior_step_s
        from repro.tune.report import write_report
        from repro.tune.space import SearchSpace
        from repro.tune.trial import ServeTrialRunner, TrainTrialRunner
        from repro.tune.tuner import SuccessiveHalving

        if args.budget < 2:
            raise SystemExit("repro tune: --budget must be >= 2")
        if args.eta < 2:
            raise SystemExit("repro tune: --eta must be >= 2")
        if args.rung_steps < 1 or args.max_rungs < 1:
            raise SystemExit("repro tune: --rung-steps/--max-rungs must be >= 1")
        if args.serve:
            import dataclasses
            import json as _json

            from repro.serve import ServeParams

            base_params = ServeParams(
                config=args.config, mean_qps=args.qps, seed=args.seed
            )
            space = SearchSpace.serve_space(base_params)
            runner: object = ServeTrialRunner(base_params, sla_ms=args.sla_ms)
            prior = None

            def winner_json(overlay: dict) -> str:
                tuned = dataclasses.replace(base_params, **overlay)
                return _json.dumps(dataclasses.asdict(tuned), indent=2)

            unit = "qps"
        else:
            from repro.train import RunSpec

            if not args.spec:
                raise SystemExit("repro tune: need --spec (or --serve)")
            _require_file(args.spec, "repro tune --spec")
            base_spec = RunSpec.load(args.spec)
            space = SearchSpace.train_space(base_spec)
            runner = TrainTrialRunner(
                base_spec, warmup=args.warmup, measure=args.measure
            )

            def prior(overlay: dict) -> float:
                return prior_step_s(base_spec.with_overrides(overlay))

            def winner_json(overlay: dict) -> str:
                return base_spec.with_overrides(overlay).to_json()

            unit = "steps_per_s"
        sha = SuccessiveHalving(
            space,
            runner,  # type: ignore[arg-type]
            budget=args.budget,
            seed=args.seed,
            eta=args.eta,
            rung0_steps=args.rung_steps,
            max_rungs=args.max_rungs,
            mutants=args.mutants,
            prior=prior,
        )
        result = sha.run()
        rows = []
        for row in result.table_rows():
            overlay_str = (
                "; ".join(f"{k}={v}" for k, v in sorted(row["overlay"].items()))
                or "(defaults)"
            )
            rows.append(
                {
                    "arm": row["arm"],
                    "origin": row["origin"],
                    "rung": row["rung"],
                    "steps": row["steps"],
                    unit: (
                        f"{row['score']:.3f}" if math.isfinite(row["score"]) else "FAILED"
                    ),
                    "bottleneck": row["bottleneck"],
                    "config": overlay_str,
                }
            )
        spec_json = winner_json(result.winner.overlay)
        mode = "serve" if args.serve else "train"
        out = format_table(
            rows,
            title=(
                f"Tuning ranking ({mode}, budget {args.budget}, seed "
                f"{args.seed}, measure {'virtual' if args.serve else args.measure})"
            ),
        )
        win = result.winner_result
        out += (
            f"\n\nwinner: arm {result.winner.arm_id} ({result.winner.origin}) "
            f"-- score {win.score:.3f} {unit} at rung {win.rung} "
            f"({win.steps} steps)"
        )
        if win.bottleneck is not None:
            out += f"\nbottleneck: {win.bottleneck.hint}"
        out += "\n\nwinning configuration:\n" + spec_json
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(spec_json + "\n")
            out += f"\n\nwinning spec written to {args.out}"
            if not args.serve:
                out += f" (run: repro train --spec {args.out})"
        if args.report:
            n = write_report(
                args.report,
                result,
                spec_json,
                header_extra={
                    "mode": mode,
                    "seed": args.seed,
                    "budget": args.budget,
                    "eta": args.eta,
                    "measure": "virtual" if args.serve else args.measure,
                },
            )
            out += f"\ntuning report: {n} records written to {args.report}"
        return out
    if name == "plan":
        import dataclasses

        from repro.parallel.placement import make_placement, placement_stats
        from repro.tiering.planner import plan_from_spec, plan_placement
        from repro.train import RunSpec

        _require_file(args.spec, "repro plan")
        flags = {"ranks": args.ranks, "placement": args.placement}
        try:
            spec = RunSpec.load(args.spec).with_overrides(
                {f"parallel.{k}": v for k, v in flags.items() if v is not None}
            )
            cfg = spec.build_config()
            ranks = spec.parallel.ranks
            # The trainer's rule: the plan's owners whenever the spec
            # plans (placement "auto" or tiering on), else the static ones.
            plan = plan_from_spec(spec, cfg) or dataclasses.replace(
                plan_placement(cfg, ranks),
                owners=tuple(make_placement(spec.parallel.placement, cfg, ranks)),
            )
        except ValueError as exc:
            raise SystemExit(f"repro plan: {exc}") from exc
        stats = placement_stats(cfg, plan.owners, ranks)
        row_bytes = cfg.embedding_dim * 4
        per_table_a2a = cfg.alltoall_bytes() / cfg.num_tables
        rank_rows = []
        for r in range(ranks):
            owned = [t for t, o in enumerate(plan.owners) if o == r]
            hot_mb = sum(
                int(plan.plans[t].hot_rows.size) * row_bytes for t in owned
            ) / 2**20
            rank_rows.append(
                {
                    "rank": r,
                    "tables": len(owned),
                    "embedding_mb": stats.bytes_per_rank[r] / 2**20,
                    "hot_mb": hot_mb,
                    "gather_ms": sum(plan.table_cost[t] for t in owned) * 1e3,
                    "alltoall_mb": len(owned) * per_table_a2a / 2**20,
                }
            )
        out = format_table(
            rank_rows,
            title=(
                f"Placement plan '{spec.name}': {spec.parallel.placement}, "
                f"{ranks} rank(s), {len(plan.tiered_tables)}/{cfg.num_tables} tables tiered, "
                f"memory imbalance {stats.memory_imbalance:.2f}"
            ),
        )
        if args.tables:
            out += "\n\n" + format_table(
                plan.describe(cfg), title="Per-table storage plan"
            )
        return out
    if name == "trace":
        from repro.obs.aggregate import stage_table
        from repro.obs.export import read_jsonl, write_chrome_trace

        _require_file(args.jsonl, "repro trace")
        header, spans = read_jsonl(args.jsonl)
        out = format_table(
            stage_table(spans),
            title=(
                f"Per-stage breakdown of {args.jsonl} "
                f"({header['spans']} spans, schema v{header['telemetry_schema']})"
            ),
        )
        if args.chrome:
            n = write_chrome_trace(spans, args.chrome)
            out += f"\n\n{n} spans converted to Chrome trace {args.chrome}"
        return out
    if name == "eval":
        from repro.core.metrics import accuracy, log_loss, roc_auc
        from repro.serve import InferenceEngine
        from repro.train.checkpoint import Archive

        _require_file(args.checkpoint, "repro eval")
        with Archive(args.checkpoint) as ckpt:  # read once: header, then members
            spec = ckpt.require_spec()
            engine = InferenceEngine.from_checkpoint(ckpt)
        batch = spec.build_dataset().batch(args.batch_size, args.batch_index)
        probs = engine.predict(batch)
        row = {
            "run": spec.name,
            "global_step": ckpt.step,
            "samples": batch.size,
            "eval_loss": log_loss(batch.labels, probs),
            "auc": roc_auc(batch.labels, probs),
            "accuracy": accuracy(batch.labels, probs),
            "mean_ctr": float(probs.mean()),
        }
        return format_table([row], title=f"Checkpoint evaluation ({args.checkpoint})")
    if name == "serve":
        from repro.serve import ServeParams, sla_frontier, sweep_budgets

        scored = ""
        if args.checkpoint:
            from repro.serve import InferenceEngine
            from repro.train.checkpoint import Archive

            _require_file(args.checkpoint, "repro serve --checkpoint")
            with Archive(args.checkpoint) as ckpt:
                spec = ckpt.require_spec()
                engine = InferenceEngine.from_checkpoint(ckpt)
            batch = spec.build_dataset().batch(min(args.max_batch, 256), 10_000_000)
            probs = engine.predict(batch)
            args.config = spec.model.config
            scored = format_table(
                [
                    {
                        "run": spec.name,
                        "global_step": ckpt.step,
                        "samples": batch.size,
                        "mean_ctr": float(probs.mean()),
                    }
                ],
                title="Functional scoring with trained weights",
            ) + "\n\n"
        from repro.resilience.faults import FaultPlan
        from repro.serve.degrade import DegradePolicy

        # Each flag is checked where it is used: a bad value exits with
        # the message of the layer that refuses it.
        try:
            FaultPlan.parse(args.fault)
            degrade = DegradePolicy(
                error_threshold=args.error_threshold,
                cooldown_s=args.breaker_cooldown_ms * 1e-3,
                retry_attempts=args.retry_attempts,
            )
            if not args.fault and degrade != DegradePolicy():
                raise ValueError(
                    "--error-threshold, --breaker-cooldown-ms and "
                    "--retry-attempts tune the response to --fault; give a fault plan"
                )
            params = ServeParams(
                config=args.config,
                requests=args.requests,
                mean_qps=args.qps,
                policy=args.policy,
                router=args.router,
                replicas=args.replicas,
                max_batch_samples=args.max_batch,
                cache_rows=args.cache_rows,
                cache_policy=args.cache_policy,
                seed=args.seed,
                fault=args.fault,
            )
            budgets = tuple(args.budgets_ms)
            sweep = sweep_budgets(params, budgets_ms=budgets, degrade=degrade if args.fault else None)
        except ValueError as exc:
            raise SystemExit(f"repro serve: {exc}") from exc
        columns = [
            "policy", "router", "budget_ms", "batches", "batch_samples",
            "hit_rate", "qps", "p50_ms", "p95_ms", "p99_ms",
        ]
        if args.fault:
            columns += ["shed_rate", "retries", "dead_replicas"]
        table = format_table(
            sweep,
            columns=columns,
            title=(
                f"Serving {args.config}: throughput vs p99 latency "
                f"({args.requests} requests, {args.replicas} replicas"
                + (", degradation-aware" if args.fault else "")
                + ")"
            ),
        )
        frontier = format_table(
            sla_frontier(sweep), title="Throughput-under-SLA frontier"
        )
        return f"{scored}{table}\n\n{frontier}"
    if name == "iteration":
        res = model_iteration(
            args.config,
            args.ranks,
            platform=args.platform,
            backend=args.backend,
            blocking=args.blocking,
            exchange=args.exchange,
            update=args.update,
        )
        bd = res.comm_breakdown()
        rows = [
            {
                "config": res.config,
                "ranks": res.n_ranks,
                "backend": res.backend,
                "exchange": res.exchange,
                "total_ms": res.iteration_time * 1e3,
                "compute_ms": res.compute_time * 1e3,
                "alltoall_wait_ms": bd["Alltoall-Wait"] * 1e3,
                "allreduce_wait_ms": bd["Allreduce-Wait"] * 1e3,
            }
        ]
        return format_table(rows, title="Modelled iteration")
    raise ValueError(f"unknown command {name!r}")  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    print(_dispatch(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
