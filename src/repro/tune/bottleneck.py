"""Bottleneck attribution: *why* an arm scored what it scored.

Given a per-stage time breakdown (the cost-model prior under
``--measure virtual``, or measured tracer spans under ``--measure
wall``), :func:`attribute` names the dominant stage and emits the
actionable hint the successive-halving loop uses to mutate survivors:
a comm-exposed arm spawns a child with a larger allreduce bucket, a
host-bound distributed arm a wider pool, and so on.  Attribution is a pure function of the breakdown, so
under virtual scoring the mutation sequence -- and therefore the whole
search trajectory -- is deterministic for a fixed seed.

The hints are the same playbook ``docs/TUNING.md`` documents for
humans; the tuner just applies it mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tune.priors import STAGES

#: stage -> (knob to step, direction, human-readable hint).
_PLAYBOOK: dict[str, tuple[str | None, int, str]] = {
    "comm": (
        "bucket_mb",
        +1,
        "comm-exposed -> raise parallel.bucket_mb (fewer, larger buckets "
        "amortise per-collective overhead)",
    ),
    "data": (None, 0, "loader-bound -> the next batch is already built beside the step"),
    "host": (
        "exec_workers",
        +1,
        "host-substrate-bound -> widen parallel.exec_workers (or switch "
        "exec_backend) so rank phases stop serialising on the pool",
    ),
    "embedding": (
        "tiering",
        +1,
        "embedding-gather-bound -> enable tiering (hot rows served from "
        "a cache-resident prefix)",
    ),
    "gemm": (
        "batch_size",
        +1,
        "GEMM-bound at small shapes -> raise schedule.batch_size for "
        "better flops/byte",
    ),
    "update": (
        "precision",
        +1,
        "optimizer-update-bound -> Split-BF16 storage halves update "
        "bytes moved",
    ),
    "other": (None, 0, "framework-overhead-bound -> no knob moves this"),
}

#: serve-mode playbook, keyed on simple row predicates (see attribute_serve).
_SERVE_HINTS = {
    "cache": (
        "cache_rows",
        +1,
        "low embedding-cache hit rate -> grow cache_rows",
    ),
    "latency": (
        "max_batch_samples",
        -1,
        "p99 over budget -> shrink micro-batches (less queueing per batch)",
    ),
    "throughput": (
        "replicas",
        +1,
        "SLA met with QPS headroom -> add replicas for throughput",
    ),
}


@dataclass(frozen=True)
class Bottleneck:
    """The dominant stage of one trial, with the mutation it suggests."""

    stage: str
    seconds: float
    share: float
    hint: str
    #: Knob of :class:`repro.tune.space.SearchSpace` to step, or None.
    knob: str | None
    direction: int

    def as_record(self) -> dict:
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "share": self.share,
            "hint": self.hint,
            "knob": self.knob,
        }


def attribute(breakdown: dict[str, float]) -> Bottleneck:
    """The largest stage of a train-mode breakdown, with its playbook hint.

    Ties break on stage name so attribution is deterministic even for
    degenerate breakdowns.
    """
    total = sum(breakdown.values())
    if not breakdown or total <= 0.0:
        return Bottleneck("other", 0.0, 0.0, _PLAYBOOK["other"][2], None, 0)
    stage, seconds = max(breakdown.items(), key=lambda kv: (kv[1], kv[0]))
    knob, direction, hint = _PLAYBOOK.get(stage, _PLAYBOOK["other"])
    return Bottleneck(stage, seconds, seconds / total, hint, knob, direction)


def attribute_serve(row: dict, sla_ms: float) -> Bottleneck:
    """Serve-mode attribution from a ``run_serving`` summary row."""
    p99 = float(row.get("p99_ms", 0.0))
    hit = float(row.get("hit_rate", 1.0))
    if p99 > sla_ms:
        key = "latency"
        seconds, share = (p99 - sla_ms) / 1e3, min(1.0, p99 / max(sla_ms, 1e-9) - 1.0)
    elif hit < 0.5:
        key = "cache"
        seconds, share = 0.0, 1.0 - hit
    else:
        key = "throughput"
        seconds, share = 0.0, 0.0
    knob, direction, hint = _SERVE_HINTS[key]
    return Bottleneck(key, seconds, share, hint, knob, direction)


def measured_breakdown(stages: dict[str, dict]) -> dict[str, float]:
    """Collapse a :func:`repro.obs.aggregate.stage_breakdown` ``stages``
    map onto the prior's stage keys, in seconds.

    Used under ``--measure wall``, where attribution should follow the
    clock that scored the arm.  Span names follow the tracer's dotted
    scheme (``train.step`` children like ``dist.forward``,
    ``comm.allreduce`` ...); unrecognised stages pool into ``other``.
    """
    out = dict.fromkeys(STAGES, 0.0)
    for name, stat in stages.items():
        secs = float(stat.get("total_ns", 0)) / 1e9
        if name == "train.step":
            continue
        if "comm" in name or "allreduce" in name or "alltoall" in name:
            out["comm"] += secs
        elif "data" in name or "loader" in name or "prefetch" in name or "batch" in name:
            out["data"] += secs
        elif "embedding" in name or "gather" in name or "tier" in name:
            out["embedding"] += secs
        elif "mlp" in name or "forward" in name or "backward" in name:
            out["gemm"] += secs
        elif "update" in name or "optim" in name:
            out["update"] += secs
        elif "dispatch" in name or "pool" in name or "mailbox" in name:
            out["host"] += secs
        else:
            out["other"] += secs
    return out
