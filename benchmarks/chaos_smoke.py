#!/usr/bin/env python
"""Chaos smoke: kill, corrupt, degrade -- then prove nothing was lost.

CI's fault-tolerance canary.  Three scenarios, each a scripted disaster
with a machine-checked recovery claim:

1. **worker kill** -- a process-backend rank worker ``os._exit``s
   mid-step; the restarting trainer must convert the stall into a typed
   failure, respawn, restore from the checkpoint ring and finish with a
   loss stream and final weights *bitwise identical* to a fault-free
   run.
2. **corrupt checkpoint** -- the newest ring entry is corrupted as
   written and the run then crashes; recovery must detect the bad CRC,
   quarantine the entry, fall back one ring slot and still finish
   bit-exactly.
3. **replica death** -- a serve replica dies mid-stream; the degraded
   replica set must complete *every* request, report p99 and the shed
   rate, and replay deterministically.

Every recovery event (the trainer's restart events + serve degradation
events, tagged with the scenario) is written to a versioned JSONL
artifact so a failing CI run ships its own post-mortem.  Exits non-zero on any violated
claim.

Run:  PYTHONPATH=src python benchmarks/chaos_smoke.py [--out chaos_events.jsonl]
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# fork keeps the process-backend spawn cost out of a smoke job.
os.environ.setdefault("REPRO_MP_CONTEXT", "fork")

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.obs.export import write_versioned_jsonl
from repro.resilience import EVENTS_KIND, EVENTS_SCHEMA
from repro.resilience.ring import CheckpointRing
from repro.serve import ServeParams, run_serving
from repro.train import RunSpec, Trainer, load_checkpoint

REPO_ROOT = Path(__file__).resolve().parent.parent


def chaos_spec(tmp: Path, tag: str, faults: str = "", ranks: int = 1) -> RunSpec:
    return RunSpec.from_dict(
        {
            "name": f"chaos-smoke-{tag}",
            "model": {"config": "small", "rows_cap": 200, "minibatch": 16, "seed": 3},
            "data": {"name": "random", "seed": 5},
            "optimizer": {"name": "sgd", "lr": 0.05},
            "parallel": {"ranks": ranks, "platform": "cluster"},
            "resilience": {
                "faults": faults,
                "ring_dir": str(tmp / f"ring-{tag}"),
                "ring_every": 2,
                "ring_keep": 10,
                "max_restarts": 2,
            },
            "schedule": {"steps": 8, "batch_size": 32, "eval_size": 32},
        }
    )


def run_supervised(spec: RunSpec, backend=None, workers=None):
    """(trainer, final ring checkpoint or None); the trainer is closed."""
    trainer = Trainer.from_spec(spec, backend=backend, workers=workers)
    try:
        trainer.fit()
    finally:
        trainer.close()
    entries = CheckpointRing.of(spec).entries()
    return trainer, load_checkpoint(entries[-1]) if entries else None


def states_bitwise_equal(a, b) -> bool:
    """Model + optimizer arrays of two checkpoints are bit-identical
    (raw bytes differ only in the embedded spec)."""
    for left, right in ((a.model_state, b.model_state), (a.opt_state, b.opt_state)):
        if set(left) != set(right):
            return False
        for key in left:
            if left[key].dtype != right[key].dtype:
                return False
            if not np.array_equal(left[key], right[key]):
                return False
    return a.step == b.step


def check(ok: bool, claim: str, failures: list[str]) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {claim}")
    if not ok:
        failures.append(claim)


def scenario_worker_kill(tmp: Path, events: list, failures: list[str]) -> None:
    """Process-backend rank worker killed mid-run; recovery is lossless.

    The executor caps workers at host cores, so the fault targets
    worker 0 -- the only worker guaranteed to exist on any runner."""
    print("scenario: worker_kill (process backend)")
    clean, clean_ckpt = run_supervised(
        chaos_spec(tmp, "kill-clean", ranks=2), backend="process", workers=2
    )
    chaos, chaos_ckpt = run_supervised(
        chaos_spec(
            tmp, "kill", faults="worker.step:step=4,worker=0,action=kill", ranks=2
        ),
        backend="process",
        workers=2,
    )
    events += [{"scenario": "worker_kill", **e} for e in chaos.events]
    check(chaos.restarts == 1, "one restart after the kill", failures)
    kinds = [e["event"] for e in chaos.events]
    check(
        kinds == ["failure", "respawn", "restore"],
        f"recovery events in order (got {kinds})",
        failures,
    )
    check(chaos.losses == clean.losses, "loss stream bitwise equal", failures)
    check(
        states_bitwise_equal(chaos_ckpt, clean_ckpt),
        "final weights + optimizer state bitwise equal",
        failures,
    )


def scenario_corrupt_checkpoint(tmp: Path, events: list, failures: list[str]) -> None:
    """Corrupted newest ring entry: CRC detects, quarantine, fall back."""
    print("scenario: corrupt_checkpoint")
    clean, clean_ckpt = run_supervised(chaos_spec(tmp, "crc-clean"))
    chaos, chaos_ckpt = run_supervised(
        chaos_spec(
            tmp,
            "crc",
            faults="ckpt.save:step=6,action=corrupt;train.step:step=7,action=raise",
        )
    )
    events += [{"scenario": "corrupt_checkpoint", **e} for e in chaos.events]
    restores = [e for e in chaos.events if e["event"] == "restore"]
    check(
        bool(restores) and restores[0]["step"] == 4,
        "restore fell back past the corrupt entry (step 4)",
        failures,
    )
    ring = tmp / "ring-crc"
    check(
        (ring / "ckpt-00000006.npz.corrupt").exists(),
        "corrupt entry quarantined for post-mortem",
        failures,
    )
    check(chaos.losses == clean.losses, "loss stream bitwise equal", failures)
    check(
        states_bitwise_equal(chaos_ckpt, clean_ckpt),
        "final weights + optimizer state bitwise equal",
        failures,
    )


def scenario_replica_death(events: list, failures: list[str]) -> None:
    """A serve replica dies mid-stream; every request still completes."""
    print("scenario: replica_death (serve)")
    params = ServeParams(
        config="small",
        requests=300,
        mean_qps=3000.0,
        replicas=3,
        seed=1,
        fault="serve.replica:replica=1,action=die",
    )
    result, row = run_serving(params)
    events += [{"scenario": "replica_death", **e} for e in result.events]
    check(int(result.latencies.size) == 300, "all 300 requests completed", failures)
    check(result.dead_replicas == [1], "dead replica detected", failures)
    check(row["p99_ms"] > 0, f"p99 reported ({row['p99_ms']:.3f} ms)", failures)
    check("shed_rate" in row, f"shed rate reported ({row['shed_rate']:.4f})", failures)
    replay, _ = run_serving(params)
    check(
        np.array_equal(result.latencies, replay.latencies)
        and result.events == replay.events,
        "chaos replay is deterministic (latencies + events)",
        failures,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "chaos_events.jsonl",
        help="recovery-event JSONL artifact",
    )
    args = parser.parse_args()

    events: list[dict] = []
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        tmp = Path(tmp)
        scenario_worker_kill(tmp, events, failures)
        scenario_corrupt_checkpoint(tmp, events, failures)
    scenario_replica_death(events, failures)

    n = write_versioned_jsonl(args.out, EVENTS_KIND, "events_schema", EVENTS_SCHEMA, events)
    print(f"wrote {n} recovery events to {args.out}")
    if failures:
        print(f"CHAOS SMOKE FAILED ({len(failures)} violated claim(s))")
        return 1
    print("all recovery claims hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
