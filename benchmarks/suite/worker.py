"""One workload, one mode, in this process: the child ``run.py`` starts.

Prints the run's notes and every metric by name with its unit, then --
as the last line of standard output -- one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1
when a verification failed, 2 when it refuses to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import host

#: Spec overrides of ``--smoke``: every table and batch small enough that
#: all six workloads, traced and untraced, finish in seconds.  Tables
#: stay at ``tiering.min_table_rows`` so the tiered path is entered.
SMOKE_OVERRIDES = {"model.rows_cap": 2048, "schedule.batch_size": 64}
SMOKE_HOT_ROWS = 256
SMOKE_REQUESTS = 60


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def load_spec(workload: str, seed: int, smoke: bool):
    from repro.train import RunSpec

    spec = RunSpec.load(host.SUITE / "workloads" / f"{workload}.json")
    overrides: dict[str, object] = {"model.seed": seed, "data.seed": seed}
    if smoke:
        overrides.update(SMOKE_OVERRIDES)
        if spec.tiering.enabled:
            overrides["tiering.hot_rows"] = SMOKE_HOT_ROWS
    return spec.with_overrides(overrides)


def run(args: argparse.Namespace, tmp: Path):
    spec = load_spec(args.workload, args.seed, args.smoke)
    spans_path = host.OUT / f"spans-{args.workload}.jsonl"
    if args.workload.startswith("serve"):
        import serve_workload as wl

        requests = SMOKE_REQUESTS if args.smoke else wl.STREAM_REQUESTS
        if args.trace:
            sim = SMOKE_REQUESTS if args.smoke else wl.SIM_REQUESTS
            return wl.run_traced(
                spec, args.seed, args.seconds, tmp, spans_path, requests, sim
            )
        return wl.run_untraced(spec, args.seed, args.seconds, tmp, requests)
    import train_workload as wl

    if args.trace:
        return wl.run_traced(spec, args.seconds, tmp, spans_path)
    return wl.run_untraced(spec, args.seconds)


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit of the metrics this mode must report."""
    manifest = json.loads((host.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    reason = host.refuse_reason()
    if reason:
        print(f"benchmark refused: {reason}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    units = declared_metrics(args.trace)
    # Checkpoints, cold-tier files and anything else the program drops
    # into the temp dir stay inside the benchmark's own directory.
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=host.OUT))
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    try:
        outcome = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not args.trace and set(outcome.metrics) != set(units):
        raise SystemExit(f"missing end-to-end metrics: {sorted(set(units) - set(outcome.metrics))}")
    # A per-layer metric whose layer this workload never enters reads 0.
    values = {name: float(outcome.metrics.get(name, 0.0)) for name in units}

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host.fingerprint(load_before), sort_keys=True))
    for note in outcome.notes:
        print("  " + note)
    share = outcome.failed / max(1, outcome.attempted)
    print(f"  failed_ops_share = {share:g} ({outcome.failed} failed of {outcome.attempted} attempted)")
    width = max(map(len, values))
    for name, value in values.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {units[name]}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            }
        )
    )
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
