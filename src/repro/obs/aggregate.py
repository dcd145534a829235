"""Per-stage aggregation of drained spans.

A "stage" is a span name: the instrumentation vocabulary is small and
fixed (``data.synthesis``, ``embedding.gather``, ``mlp.gemm.*``,
``comm.<coll>.{framework,wait}``, ``update.*``, ``phase.*``,
``serve.*``, ``train.step``), so aggregating by name *is* the per-stage
breakdown.  Shares are fractions of total ``train.step`` time (the
outermost training span) when present, else of the timeline's wall
extent -- nested stages can therefore sum past 1.0 by design (a GEMM
inside a rank phase counts in both), which is exactly how the paper's
stacked breakdowns read too.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.tracer import TELEMETRY_SCHEMA

#: The denominator stage for shares (the whole-step span).
STEP_STAGE = "train.step"


def merge_spans(*span_lists: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """One timeline from several drains (parent + worker processes),
    ordered by start time with outer spans before their children."""
    merged = [s for spans in span_lists for s in spans]
    merged.sort(key=lambda s: (s["ts"], s["depth"]))
    return merged


def _wall_extent_ns(spans: list[dict[str, Any]]) -> int:
    if not spans:
        return 0
    t0 = min(s["ts"] for s in spans)
    t1 = max(s["ts"] + s["dur"] for s in spans)
    return t1 - t0


def aggregate(spans: Iterable[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per-stage totals: ``{name: {count, total_ms, mean_ms, share,
    counters}}``, sorted by descending total time.

    ``share`` divides by the summed ``train.step`` time when any such
    span exists (so worker-process stages attribute against the parent's
    step loop correctly after a merge), else by the wall extent of the
    timeline.  Counters with the same key sum across spans.
    """
    spans = list(spans)
    stats: dict[str, dict[str, Any]] = {}
    for s in spans:
        st = stats.get(s["name"])
        if st is None:
            st = stats[s["name"]] = {"count": 0, "total_ns": 0, "counters": {}}
        st["count"] += 1
        st["total_ns"] += s["dur"]
        for key, value in s.get("args", {}).items():
            st["counters"][key] = st["counters"].get(key, 0) + value
    step_ns = stats.get(STEP_STAGE, {}).get("total_ns", 0)
    denom = step_ns if step_ns > 0 else _wall_extent_ns(spans)
    out: dict[str, dict[str, Any]] = {}
    for name in sorted(stats, key=lambda n: -stats[n]["total_ns"]):
        st = stats[name]
        out[name] = {
            "count": st["count"],
            "total_ms": st["total_ns"] / 1e6,
            "mean_ms": st["total_ns"] / st["count"] / 1e6,
            "share": st["total_ns"] / denom if denom else 0.0,
            "counters": st["counters"],
        }
    return out


def _exposed_ms(st: dict[str, Any]) -> float:
    """Exposed (non-overlapped) virtual communication time of one stage.

    ``comm.*.wait`` spans carry an ``exposed_virtual_s`` counter -- the
    simulated time the rank actually stalled, as opposed to transfer
    time hidden under compute.  Summed here into a per-stage column so a
    trace answers the paper's headline question ("how much communication
    did the overlap hide?") without replaying the run.
    """
    return st["counters"].get("exposed_virtual_s", 0.0) * 1e3


def stage_table(spans: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Rows for :func:`repro.util.format_table`."""
    rows = []
    for name, st in aggregate(spans).items():
        rows.append(
            {
                "stage": name,
                "count": st["count"],
                "total_ms": st["total_ms"],
                "mean_ms": st["mean_ms"],
                "share": st["share"],
                "exposed_ms": _exposed_ms(st),
            }
        )
    return rows


def stage_breakdown(spans: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """The versioned per-stage section a tuning trial reads measured
    stage times from (:mod:`repro.tune.trial`)."""
    stages = {}
    for name, st in aggregate(spans).items():
        entry = {
            "count": st["count"],
            "total_ms": round(st["total_ms"], 3),
            "share": round(st["share"], 4),
        }
        exposed = _exposed_ms(st)
        if exposed:
            entry["exposed_ms"] = round(exposed, 3)
        stages[name] = entry
    return {"telemetry_schema": TELEMETRY_SCHEMA, "stages": stages}
