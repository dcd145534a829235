#!/usr/bin/env python3
"""The repo's benchmark: six train/serve workloads, one command.

    python3 benchmarks/suite/run.py                      # every workload, untraced + traced
    python3 benchmarks/suite/run.py --workload train_emb --seed 3 --seconds 8 --trace 0
    python3 benchmarks/suite/run.py --agree              # two sets back to back, within bounds?
    python3 benchmarks/suite/run.py --smoke              # tiny sizes, checks the output contract

Each workload runs in a fresh child process (``worker.py``), one at a
time, with BLAS pinned to one thread and ``src`` on its path.  With
``--workload`` and ``--trace`` the last line of output is the child's
result object; see README.md for the metrics and ``BENCHMARK.json`` for
their names, units and regression bounds.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time

import host

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE_SECONDS = 0.3
SMOKE_BUDGET_S = 30.0
#: ``--agree`` also lets two single runs' ``setup_s`` differ by this much.
#: A set-up lasts 0.25-0.9 s, so one burst of host noise covers most of
#: a run's five repetitions; the relative bound alone is for medians of
#: many runs.
SETUP_FLOOR_S = 0.3


def load_manifest() -> dict:
    return json.loads((host.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool = False, echo: bool = True
) -> tuple[int, dict | None]:
    """Run one workload in a fresh child; returns (exit code, result)."""
    cmd = [
        sys.executable, str(host.SUITE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.run(
        cmd, cwd=host.REPO, env=host.child_env(), stdout=subprocess.PIPE, text=True
    )
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not (isinstance(result, dict) and "metrics" in result):
        result = None
    return proc.returncode, result


def run_set(names: list[str], seed: int, seconds: float, traces: tuple[int, ...],
            smoke: bool = False, echo: bool = True) -> tuple[bool, dict]:
    """Every named workload in every given mode, sequentially."""
    ok, results = True, {}
    for name in names:
        for trace in traces:
            code, result = run_child(name, seed, seconds, trace, smoke, echo)
            ok &= code == 0 and result is not None
            results[(name, trace)] = result
    return ok, results


def agree(names: list[str], manifest: dict, seed: int, seconds: float) -> bool:
    """Two full untraced sets of the same code must agree within the
    bounds the benchmark itself fixes."""
    sets = []
    for i in range(2):
        print(f"== set {i + 1} of 2 ==", flush=True)
        ok, results = run_set(names, seed, seconds, (0,), echo=False)
        if not ok:
            print("a run failed; rerun without --agree to see its output")
            return False
        sets.append(results)
    print(f"{'workload':<18}{'metric':<16}{'set 1':>14}{'set 2':>14}{'spread':>9}{'bound':>8}")
    within = True
    for name in names:
        for metric in manifest["end_to_end"]:
            a, b = (s[(name, 0)]["metrics"][metric["name"]]["value"] for s in sets)
            spread = abs(a - b) / min(a, b)
            ok = spread <= metric["bound"] or (
                metric["name"] == "setup_s" and abs(a - b) <= SETUP_FLOOR_S
            )
            flag = "" if ok else "  OUT OF BOUND"
            within &= not flag
            print(
                f"{name:<18}{metric['name']:<16}{a:>14.4f}{b:>14.4f}"
                f"{spread:>9.3f}{metric['bound']:>8.2f}{flag}"
            )
    print("agreement: " + ("within bounds" if within else "FAILED"))
    return within


def smoke(names: list[str], manifest: dict, seed: int) -> bool:
    """Tiny sizes: does every workload emit every declared metric once,
    under a legal name, with its unit?"""
    t0 = time.perf_counter()
    ok, results = run_set(names, seed, SMOKE_SECONDS, (0, 1), smoke=True, echo=False)
    elapsed = time.perf_counter() - t0
    problems = [] if ok else ["a child exited non-zero or printed no result"]
    for (name, trace), result in results.items():
        if result is None:
            problems.append(f"{name} trace={trace}: no result")
            continue
        declared = manifest["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        got = result["metrics"]
        if len(want) != len(declared):
            problems.append(f"duplicate metric names in BENCHMARK.json ({'per_layer' if trace else 'end_to_end'})")
        if set(got) != set(want):
            problems.append(f"{name} trace={trace}: metric names differ: {sorted(set(got) ^ set(want))}")
        for metric, unit in want.items():
            if not NAME_RE.fullmatch(metric):
                problems.append(f"illegal metric name {metric!r}")
            if got.get(metric, {}).get("unit") != unit:
                problems.append(f"{name} trace={trace}: {metric} lacks unit {unit!r}")
        if trace and "bench.layer_residual_share" not in got:
            problems.append(f"{name}: bench.layer_residual_share not reported")
        if not result["correct"]:
            problems.append(f"{name} trace={trace}: verification failed")
    if elapsed > SMOKE_BUDGET_S:
        problems.append(f"smoke took {elapsed:.1f} s, budget {SMOKE_BUDGET_S:.0f} s")
    for p in problems:
        print("smoke: " + p)
    print(f"smoke: {len(results)} runs in {elapsed:.1f} s: " + ("ok" if not problems else "FAILED"))
    return not problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="run only this workload (default: all six)")
    p.add_argument("--seed", type=int, default=0, help="feeds model.seed, data.seed and the stream seed")
    p.add_argument("--seconds", type=float, help="length of a timed section (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end metrics only; 1: per-layer metrics only (default: both)")
    p.add_argument("--agree", action="store_true", help="run two sets and compare against the bounds")
    p.add_argument("--smoke", action="store_true", help="tiny sizes; check the output contract")
    args = p.parse_args(argv)

    if not (host.SRC / "repro").is_dir():
        print(f"benchmark refused: no program to measure at {host.SRC}", file=sys.stderr)
        return 2
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; have {names}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else float(manifest["run_seconds"])
    host.OUT.mkdir(exist_ok=True)

    if args.smoke:
        return 0 if smoke(names, manifest, args.seed) else 1
    if args.agree:
        return 0 if agree(names, manifest, args.seed, seconds) else 1
    traces = (0, 1) if args.trace is None else (args.trace,)
    ok, _ = run_set(names, args.seed, seconds, traces)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
