#!/usr/bin/env python
"""Perf-trajectory gate: diff fresh bench JSONs against committed baselines.

CI regenerates ``BENCH_train_e2e.json`` / ``BENCH_hotpath.json`` on
every run (``bench-smoke`` job) and hands this tool the fresh files plus
the baselines committed at the repo root.  The gate **fails** on

* any ``bit_identical: false`` cell in a fresh file -- the repo's
  bit-exactness contract is broken, regardless of machine; and
* a >30% ``steps_per_s`` regression in any train-e2e cell present in
  both files, **when the fresh run's cpu_count matches the baseline's**
  (throughput on a different core count is not comparable; the gate
  notes the skip instead);
* a ``telemetry_schema`` mismatch -- the baseline carries a telemetry
  version and the fresh payload is missing it or disagrees (trace
  consumers would silently misread the per-stage sections); and
* a per-stage share blow-up at matching shapes: any stage that held
  >=5% of step time in the baseline growing its share by more than 15
  percentage points (absolute times don't travel across runners, but
  the *shape* of the breakdown does); and
* an exposed-communication regression: a distributed scenario whose
  virtual-clock ``exposed_comm_share`` (schema 4) grows more than 10
  percentage points over the baseline -- the overlap won by the
  issue-as-ready bucketed allreduce is part of the perf contract; and
* a resilience-hook overhead blow-up: the fresh payload's projected
  disabled-path fault-hook cost (schema 5 ``resilience`` section)
  exceeding 2% of step time -- the fault-injection sites live in the
  hot loops permanently and must stay plain None-checks; and
* a tiering regression (``BENCH_tiering.json``): any placement cell
  that is not bit-identical to ``round_robin``, a modelled ``auto``
  speedup at or below 1.0x against either static placement, or a >30%
  erosion of that speedup against the committed baseline (virtual
  clocks travel across runners; the ratchet only compares matching
  ``quick`` shapes).

Speedup deltas and the thread-vs-process comparison are always posted:
a markdown summary is appended to ``$GITHUB_STEP_SUMMARY`` when set
(the PR's job summary page) and printed to stdout either way.

To ratchet the baseline after an intentional perf change, run the bench
on a machine matching the committed ``cpu_count`` (or download the CI
artifact from a green run) and commit the refreshed JSON.

Run:
    python benchmarks/compare_bench.py \
        --train-baseline BENCH_train_e2e.json --train-fresh fresh_e2e.json \
        --hotpath-baseline BENCH_hotpath.json --hotpath-fresh fresh_hot.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

MAX_REGRESSION = 0.30
#: Stage-share gate: only stages holding at least this share of step
#: time in the baseline are gated ...
MIN_GATED_SHARE = 0.05
#: ... and they fail only when their fresh share grows by more than
#: this many absolute percentage points (expressed as a fraction).
MAX_SHARE_GROWTH = 0.15
#: Exposed-communication gate: a distributed scenario fails when its
#: ``exposed_comm_share`` (virtual-clock stall fraction) grows by more
#: than this many absolute percentage points over the baseline -- the
#: overlap the issue-as-ready bucketed allreduce bought must not quietly
#: erode.  Virtual clocks travel perfectly across runners, so no
#: cpu_count matching is needed.
MAX_EXPOSED_GROWTH = 0.10
#: Resilience gate: projected disabled-path cost of the fault-injection
#: hooks (percent of step time) above which the fresh run fails.  The
#: projection is machine-local but travels as a ratio, so no cpu_count
#: matching is needed -- and the gate needs no baseline at all.
MAX_RESILIENCE_OVERHEAD_PCT = 2.0


def _load(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _train_cells(payload: dict):
    """Flatten a train-e2e payload to {(scenario, backend, workers): cell}.

    Handles both the schema-2 ``backends`` layout and the schema-1
    ``workers`` layout (pre-process-backend baselines)."""
    cells: dict[tuple[str, str, str], dict] = {}
    for scenario, entry in payload.get("results", {}).items():
        if "backends" in entry:
            for backend, rows in entry["backends"].items():
                for workers, cell in rows.items():
                    cells[(scenario, backend, workers)] = cell
        else:  # schema 1: thread-only sweep
            for workers, cell in entry.get("workers", {}).items():
                cells[(scenario, "thread", workers)] = cell
    return cells


def check_bit_identity(payload: dict, bench: str) -> list[str]:
    """Every cell of a fresh payload must be bitwise clean.

    ``bit_identical: null`` means the bench makes no bit claim for that
    cell (say, a kernel that reorders its FP32 accumulation and is
    allclose by design); only an explicit ``false`` is a violation.  A
    baseline cell that a fresh run no longer emits (a retired kernel)
    is not compared at all."""
    failures = []
    if bench == "train_e2e":
        for (scenario, backend, workers), cell in _train_cells(payload).items():
            if cell.get("bit_identical", True) is False:
                failures.append(
                    f"train_e2e: {scenario} {backend}/workers={workers} "
                    "is not bit-identical to the sequential baseline"
                )
    elif bench == "tiering":
        for name, cell in payload.get("results", {}).get("placements", {}).items():
            if cell.get("bit_identical", True) is False:
                failures.append(
                    f"tiering: placement {name} diverged bitwise from round_robin"
                )
    else:
        for name, cell in payload.get("results", {}).items():
            if cell.get("bit_identical", True) is False:
                failures.append(f"hotpath: {name} optimized kernel is not bit-identical")
    return failures


def check_tiering(
    baseline: dict | None, fresh: dict, max_regression: float
) -> tuple[list[str], list[str]]:
    """(failures, notes) for the tiering bench.

    Two claims travel across runners because they live on the virtual
    clock: ``placement="auto"`` must beat both static placements in
    modelled steps/s (the planner's reason to exist), and the modelled
    speedup must not erode more than ``max_regression`` against the
    committed baseline (between matching ``quick`` shapes only)."""
    failures: list[str] = []
    notes: list[str] = []
    speedups = fresh.get("results", {}).get("auto_modelled_speedup", {})
    for name, ratio in speedups.items():
        if ratio <= 1.0:
            failures.append(
                f"tiering: auto modelled steps/s no longer beats {name[3:]} "
                f"({ratio:.3f}x) -- the cost-model planner lost its edge"
            )
    if baseline is None:
        notes.append("no tiering baseline: speedup ratchet skipped")
        return failures, notes
    if fresh.get("quick") != baseline.get("quick"):
        notes.append(
            "tiering ratchet skipped: quick/full shapes differ between "
            "fresh and baseline"
        )
        return failures, notes
    base_speedups = baseline.get("results", {}).get("auto_modelled_speedup", {})
    compared = 0
    for name, base_ratio in base_speedups.items():
        ratio = speedups.get(name)
        if ratio is None:
            continue
        compared += 1
        if ratio < base_ratio * (1.0 - max_regression):
            failures.append(
                f"tiering: auto speedup {name} regressed {base_ratio:.3f}x -> "
                f"{ratio:.3f}x (>{max_regression:.0%} below baseline)"
            )
    notes.append(f"tiering ratchet compared {compared} speedup ratios")
    return failures, notes


def tiering_summary_md(fresh: dict) -> str:
    """Markdown: the placement sweep table of the tiering bench."""
    placements = fresh.get("results", {}).get("placements", {})
    if not placements:
        return ""
    lines = [
        "### Embedding tiering (modelled, virtual clocks)",
        "",
        "| placement | modelled steps/s | wall steps/s | tiered tables | bitwise |",
        "|---|---|---|---|---|",
    ]
    for name, cell in placements.items():
        lines.append(
            f"| {name} | {cell.get('modelled_steps_per_s', 0.0):.2f} | "
            f"{cell.get('wall_steps_per_s', 0.0):.3f} | "
            f"{cell.get('tiered_tables', 0)} | "
            f"{'yes' if cell.get('bit_identical') else 'NO'} |"
        )
    lines.append("")
    return "\n".join(lines)


def check_train_regressions(
    baseline: dict, fresh: dict, max_regression: float
) -> tuple[list[str], list[str]]:
    """(failures, notes) for steps/s regressions at matching cpu_count."""
    notes: list[str] = []
    if fresh.get("cpu_count") != baseline.get("cpu_count"):
        notes.append(
            f"steps/s gate skipped: fresh cpu_count={fresh.get('cpu_count')} != "
            f"baseline cpu_count={baseline.get('cpu_count')} (throughput not comparable)"
        )
        return [], notes
    if fresh.get("quick") != baseline.get("quick"):
        notes.append(
            "steps/s gate skipped: quick/full shapes differ between fresh and baseline"
        )
        return [], notes
    failures = []
    base_cells = _train_cells(baseline)
    fresh_cells = _train_cells(fresh)
    compared = 0
    for key, base in base_cells.items():
        cell = fresh_cells.get(key)
        if cell is None:
            continue
        compared += 1
        floor = base["steps_per_s"] * (1.0 - max_regression)
        if cell["steps_per_s"] < floor:
            scenario, backend, workers = key
            failures.append(
                f"train_e2e: {scenario} {backend}/workers={workers} regressed "
                f"{base['steps_per_s']:.3f} -> {cell['steps_per_s']:.3f} steps/s "
                f"(>{max_regression:.0%} below baseline)"
            )
    notes.append(
        f"steps/s gate compared {compared} cells at cpu_count="
        f"{fresh.get('cpu_count')} (floor: {1 - max_regression:.0%} of baseline)"
    )
    return failures, notes


def check_hotpath_regressions(
    baseline: dict, fresh: dict, max_regression: float
) -> tuple[list[str], list[str]]:
    """Hotpath gate compares *speedup ratios* (reference vs optimized on
    the same machine), which travel across runners -- but only between
    runs of the same shapes (matching ``quick``)."""
    notes: list[str] = []
    if fresh.get("quick") != baseline.get("quick"):
        notes.append(
            "hotpath speedup gate skipped: quick/full shapes differ "
            "between fresh and baseline"
        )
        return [], notes
    failures = []
    for name, base in baseline.get("results", {}).items():
        cell = fresh.get("results", {}).get(name)
        if cell is None or "speedup" not in base:
            continue
        floor = base["speedup"] * (1.0 - max_regression)
        if cell.get("speedup", 0.0) < floor:
            failures.append(
                f"hotpath: {name} speedup regressed {base['speedup']:.2f}x -> "
                f"{cell.get('speedup'):.2f}x (>{max_regression:.0%} below baseline)"
            )
    return failures, notes


def check_telemetry_schema(baseline: dict, fresh: dict) -> tuple[list[str], list[str]]:
    """The fresh payload must speak the same telemetry schema as the
    baseline.  Baselines predating telemetry (schema < 3) make no claim,
    so the gate notes the skip instead of failing."""
    base_ver = baseline.get("telemetry_schema")
    if base_ver is None:
        return [], ["telemetry gate skipped: baseline carries no telemetry_schema"]
    fresh_ver = fresh.get("telemetry_schema")
    if fresh_ver != base_ver:
        return [
            f"train_e2e: telemetry_schema mismatch: baseline v{base_ver}, "
            f"fresh {'v' + str(fresh_ver) if fresh_ver is not None else 'missing'} "
            "-- per-stage sections are not comparable (ratchet the baseline "
            "deliberately if the bump is intentional)"
        ], []
    return [], [f"telemetry schema v{base_ver} matches"]


def check_stage_regressions(baseline: dict, fresh: dict) -> tuple[list[str], list[str]]:
    """(failures, notes) for per-stage share blow-ups.

    Shares travel across runners better than absolute times, but only
    between runs of the same shapes (matching ``quick``).  A stage that
    held >= MIN_GATED_SHARE of step time in the baseline fails if its
    fresh share grew by more than MAX_SHARE_GROWTH absolute."""
    notes: list[str] = []
    if fresh.get("quick") != baseline.get("quick"):
        notes.append(
            "stage-share gate skipped: quick/full shapes differ between "
            "fresh and baseline"
        )
        return [], notes
    failures: list[str] = []
    compared = 0
    for scenario, base_entry in baseline.get("results", {}).items():
        base_stages = (base_entry.get("stages") or {}).get("stages", {})
        fresh_stages = (
            (fresh.get("results", {}).get(scenario, {}).get("stages") or {})
        ).get("stages", {})
        for name, base_stage in base_stages.items():
            base_share = base_stage.get("share", 0.0)
            if base_share < MIN_GATED_SHARE:
                continue
            compared += 1
            fresh_share = fresh_stages.get(name, {}).get("share", 0.0)
            if fresh_share > base_share + MAX_SHARE_GROWTH:
                failures.append(
                    f"train_e2e: {scenario} stage '{name}' share grew "
                    f"{base_share:.1%} -> {fresh_share:.1%} "
                    f"(>{MAX_SHARE_GROWTH:.0%} absolute growth)"
                )
    notes.append(f"stage-share gate compared {compared} gated stages")
    return failures, notes


def check_resilience_overhead(fresh: dict) -> tuple[list[str], list[str]]:
    """(failures, notes) for the disabled fault-hook overhead budget.

    Purely a property of the fresh payload (the budget is absolute, not
    a ratchet).  Payloads predating schema 5 carry no ``resilience``
    section and make no claim: the gate notes the skip instead."""
    section = fresh.get("resilience")
    if section is None:
        return [], [
            "resilience gate skipped: payload carries no resilience section (schema < 5)"
        ]
    pct = section.get("disabled_overhead_pct", 0.0)
    if pct > MAX_RESILIENCE_OVERHEAD_PCT:
        return [
            f"train_e2e: projected disabled fault-hook overhead {pct:.3f}% exceeds "
            f"{MAX_RESILIENCE_OVERHEAD_PCT:.0f}% of step time -- the injection "
            "sites must stay plain None-checks"
        ], []
    return [], [
        f"resilience disabled-path overhead {pct:.4f}% "
        f"(budget {MAX_RESILIENCE_OVERHEAD_PCT:.0f}%)"
    ]


def check_exposed_comm(baseline: dict, fresh: dict) -> tuple[list[str], list[str]]:
    """(failures, notes) for exposed-comm share regressions.

    Compares each distributed scenario's ``virtual_comm`` section
    (schema >= 4).  Baselines predating the field make no claim: the
    gate notes the skip instead of failing, so the first schema-4 run
    can ratchet a baseline in."""
    notes: list[str] = []
    failures: list[str] = []
    compared = 0
    for scenario, base_entry in baseline.get("results", {}).items():
        base_vc = base_entry.get("virtual_comm")
        if base_vc is None or "exposed_comm_share" not in base_vc:
            continue
        fresh_vc = fresh.get("results", {}).get(scenario, {}).get("virtual_comm")
        if fresh_vc is None:
            failures.append(
                f"train_e2e: {scenario} lost its virtual_comm section "
                "(baseline carries an exposed-comm claim)"
            )
            continue
        compared += 1
        base_share = base_vc["exposed_comm_share"]
        fresh_share = fresh_vc.get("exposed_comm_share", 1.0)
        if fresh_share > base_share + MAX_EXPOSED_GROWTH:
            failures.append(
                f"train_e2e: {scenario} exposed-comm share regressed "
                f"{base_share:.1%} -> {fresh_share:.1%} "
                f"(>{MAX_EXPOSED_GROWTH:.0%} absolute growth: communication "
                "the overlap used to hide is now stalling ranks)"
            )
    if compared:
        notes.append(f"exposed-comm gate compared {compared} distributed scenarios")
    else:
        notes.append(
            "exposed-comm gate skipped: baseline carries no virtual_comm sections"
        )
    return failures, notes


def exposed_comm_md(baseline: dict, fresh: dict) -> str:
    """Markdown: hidden-vs-exposed virtual communication per scenario."""
    rows = []
    for scenario, entry in fresh.get("results", {}).items():
        vc = entry.get("virtual_comm")
        if not vc:
            continue
        base_vc = baseline.get("results", {}).get(scenario, {}).get("virtual_comm", {})
        base_share = base_vc.get("exposed_comm_share")
        rows.append(
            f"| {scenario} | {vc.get('hidden_s', 0.0) * 1e3:.3f} | "
            f"{vc.get('exposed_wait_s', 0.0) * 1e3:.3f} | "
            f"{vc.get('exposed_comm_share', 0.0):.1%} | "
            f"{f'{base_share:.1%}' if base_share is not None else '--'} |"
        )
    if not rows:
        return ""
    return "\n".join(
        [
            "### Communication overlap (virtual clocks)",
            "",
            "| scenario | hidden ms/run | exposed ms/run | exposed share | baseline share |",
            "|---|---|---|---|---|",
            *rows,
            "",
        ]
    )


def train_summary_md(baseline: dict, fresh: dict) -> str:
    """Markdown: thread-vs-process per scenario + deltas vs baseline."""
    lines = [
        "## Train e2e perf trajectory",
        "",
        f"fresh: cpu_count={fresh.get('cpu_count')}, steps={fresh.get('steps')}, "
        f"numpy {fresh.get('numpy')}; baseline: cpu_count={baseline.get('cpu_count')}",
        "",
    ]
    base_cells = _train_cells(baseline)
    for scenario, entry in fresh.get("results", {}).items():
        backends = entry.get("backends", {})
        if not backends:
            continue
        lines.append(f"### {scenario}")
        lines.append("")
        lines.append(
            "| workers | thread steps/s | process steps/s | process/thread | vs baseline (thread) |"
        )
        lines.append("|---|---|---|---|---|")
        thread = backends.get("thread", {})
        process = backends.get("process", {})
        for workers in sorted(thread, key=int):
            t = thread[workers]["steps_per_s"]
            p = process.get(workers, {}).get("steps_per_s")
            ratio = f"{p / t:.2f}x" if p else "--"
            base = base_cells.get((scenario, "thread", workers))
            delta = (
                f"{(t / base['steps_per_s'] - 1) * 100:+.1f}%" if base else "new"
            )
            p_str = f"{p:.3f}" if p else "--"
            lines.append(f"| {workers} | {t:.3f} | {p_str} | {ratio} | {delta} |")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-baseline", type=Path, default=None)
    parser.add_argument("--train-fresh", type=Path, default=None)
    parser.add_argument("--hotpath-baseline", type=Path, default=None)
    parser.add_argument("--hotpath-fresh", type=Path, default=None)
    parser.add_argument("--tiering-baseline", type=Path, default=None)
    parser.add_argument("--tiering-fresh", type=Path, default=None)
    parser.add_argument(
        "--max-regression", type=float, default=MAX_REGRESSION,
        help="allowed fractional drop before the gate fails (default 0.30)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    notes: list[str] = []
    summary_parts: list[str] = []

    if args.train_fresh is not None:
        fresh = _load(args.train_fresh)
        failures += check_bit_identity(fresh, "train_e2e")
        f, n = check_resilience_overhead(fresh)
        failures += f
        notes += n
        if args.train_baseline is not None and args.train_baseline.exists():
            baseline = _load(args.train_baseline)
            f, n = check_train_regressions(baseline, fresh, args.max_regression)
            failures += f
            notes += n
            f, n = check_telemetry_schema(baseline, fresh)
            failures += f
            notes += n
            f, n = check_stage_regressions(baseline, fresh)
            failures += f
            notes += n
            f, n = check_exposed_comm(baseline, fresh)
            failures += f
            notes += n
            summary_parts.append(train_summary_md(baseline, fresh))
            summary_parts.append(exposed_comm_md(baseline, fresh))
        else:
            notes.append("no train-e2e baseline: regression gate skipped")
            summary_parts.append(train_summary_md({}, fresh))
            summary_parts.append(exposed_comm_md({}, fresh))

    if args.hotpath_fresh is not None:
        fresh_hot = _load(args.hotpath_fresh)
        failures += check_bit_identity(fresh_hot, "hotpath")
        if args.hotpath_baseline is not None and args.hotpath_baseline.exists():
            base_hot = _load(args.hotpath_baseline)
            f, n = check_hotpath_regressions(base_hot, fresh_hot, args.max_regression)
            failures += f
            notes += n

    if args.tiering_fresh is not None:
        fresh_tier = _load(args.tiering_fresh)
        failures += check_bit_identity(fresh_tier, "tiering")
        base_tier = (
            _load(args.tiering_baseline)
            if args.tiering_baseline is not None and args.tiering_baseline.exists()
            else None
        )
        f, n = check_tiering(base_tier, fresh_tier, args.max_regression)
        failures += f
        notes += n
        summary_parts.append(tiering_summary_md(fresh_tier))

    summary = "\n".join(summary_parts)
    if notes:
        summary += "\n**Notes**\n\n" + "\n".join(f"- {n}" for n in notes) + "\n"
    if failures:
        summary += (
            "\n## :x: Perf gate failures\n\n"
            + "\n".join(f"- {f}" for f in failures)
            + "\n"
        )
    else:
        summary += "\n:white_check_mark: perf gate passed\n"
    print(summary)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as fh:
            fh.write(summary + "\n")
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)} finding(s))", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
