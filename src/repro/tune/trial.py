"""Trial execution: run one arm for a few steps and score it.

A *trial* is a short, real run of the existing execution stack -- the
arm's overlay is applied to the base RunSpec with
:meth:`~repro.train.spec.RunSpec.with_overrides`, a trainer is built
through the normal :func:`~repro.train.trainer.make_trainer` path
(so thread/process backends, tiering, bucketed allreduce and fault
injection all behave exactly as in production runs), ``warmup`` steps
are discarded, and ``steps`` measured steps are timed.

Two measurement modes:

* ``virtual`` (default) -- the score is steps per *virtual* second:
  the SimCluster clock advance observed during the measured window
  (bit-identical across hosts, backends and pool widths by the repo's
  core contract) plus the cost model's deterministic host-substrate
  term for the knobs virtual clocks cannot see.  Single-process arms
  have no cluster, so their virtual cost is the calibrated model's
  prediction.  This mode makes ``repro tune --seed N`` bit-reproducible.
* ``wall`` -- the score is steps per wall-clock second on *this*
  machine, with attribution from the measured tracer spans.  Honest,
  machine-local, and not reproducible; recorded as informational
  columns even under ``virtual``.

Cleanup is unconditional: the trainer is closed (process workers
reaped, the global worker pool returned to its pre-trial width) and the
tracer restored, so a crashed arm cannot poison later arms.  Any
exception a trial raises -- including the typed worker failures of
:mod:`repro.resilience` -- scores the arm as *failed* (``-inf``)
instead of aborting the search.

Thread-safety: a runner mutates process-global state (tracer, worker
pool) during :meth:`run`; run trials sequentially.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.aggregate import stage_breakdown
from repro.obs.tracer import Tracer, get_tracer, set_tracer
from repro.train.spec import RunSpec
from repro.train.trainer import make_trainer
from repro.tune.bottleneck import (
    Bottleneck,
    attribute,
    attribute_serve,
    measured_breakdown,
)
from repro.tune.priors import prior_breakdown

#: Fields every trial forces: no eval/checkpoint/log side work, no
#: supervised restarts masking a crash as a slow success.
_TRIAL_OVERRIDES = {
    "schedule.eval_every": 0,
    "schedule.log_every": 0,
    "resilience.ring_every": 0,
    "resilience.supervise": False,
}


@dataclass
class TrialResult:
    """One scored trial. ``score`` is higher-is-better (steps/s or QPS)."""

    arm_id: int
    overlay: dict[str, Any]
    rung: int
    steps: int
    ok: bool
    score: float
    step_s: float | None = None
    wall_step_s: float | None = None
    breakdown: dict[str, float] = field(default_factory=dict)
    measured_stages: dict[str, Any] = field(default_factory=dict)
    bottleneck: Bottleneck | None = None
    error: str | None = None

    @classmethod
    def failed(
        cls, arm_id: int, overlay: dict[str, Any], rung: int, steps: int, exc: Exception
    ) -> "TrialResult":
        """The trial ``exc`` ended: scores ``-inf``, so it ranks last."""
        return cls(
            arm_id=arm_id,
            overlay=overlay,
            rung=rung,
            steps=steps,
            ok=False,
            score=float("-inf"),
            error=f"{type(exc).__name__}: {exc}",
        )

    def as_record(self) -> dict[str, Any]:
        """JSON-safe report record (``-inf`` scores become null)."""
        return {
            "type": "trial",
            "arm": self.arm_id,
            "rung": self.rung,
            "steps": self.steps,
            "ok": self.ok,
            "score": self.score if math.isfinite(self.score) else None,
            "step_s": self.step_s,
            "wall_step_s": self.wall_step_s,
            "overlay": dict(self.overlay),
            "stages": dict(self.breakdown),
            "measured_stages": dict(self.measured_stages),
            "bottleneck": self.bottleneck.as_record() if self.bottleneck else None,
            "error": self.error,
        }


class TrainTrialRunner:
    """Runs training-mode trials against a base RunSpec."""

    def __init__(
        self,
        base: RunSpec,
        warmup: int = 2,
        measure: str = "virtual",
    ):
        if measure not in ("virtual", "wall"):
            raise ValueError(f"measure must be virtual or wall, got {measure!r}")
        self.base = base
        self.warmup = warmup
        self.measure = measure

    def run(self, overlay: dict[str, Any], arm_id: int, steps: int, rung: int) -> TrialResult:
        merged = {**overlay, **_TRIAL_OVERRIDES, "schedule.steps": self.warmup + steps}
        prev_tracer = get_tracer()
        trainer = None
        try:
            spec = self.base.with_overrides(merged)
            prior = prior_breakdown(spec)
            set_tracer(Tracer())
            trainer = make_trainer(spec)
            trainer.fit(self.warmup)
            v0 = trainer.virtual_clock_s()
            t0 = time.perf_counter()
            trainer.fit(steps)
            wall = time.perf_counter() - t0
            v1 = trainer.virtual_clock_s()
            spans = trainer.drain_trace_spans()
            measured = stage_breakdown(spans).get("stages", {})
            wall_step = wall / steps if steps else None
            if v0 is not None and v1 is not None and steps:
                virt_step = (v1 - v0) / steps + prior["host"]
            else:
                virt_step = sum(prior.values())
            if self.measure == "virtual":
                step_s, breakdown = virt_step, prior
            else:
                step_s = wall_step if wall_step else virt_step
                breakdown = measured_breakdown(measured) if measured else prior
            return TrialResult(
                arm_id=arm_id,
                overlay=overlay,
                rung=rung,
                steps=steps,
                ok=True,
                score=1.0 / step_s if step_s else float("-inf"),
                step_s=step_s,
                wall_step_s=wall_step,
                breakdown=breakdown,
                measured_stages=measured,
                bottleneck=attribute(breakdown),
            )
        except Exception as exc:  # noqa: BLE001 -- failed arms score, not abort
            return TrialResult.failed(arm_id, overlay, rung, steps, exc)
        finally:
            if trainer is not None:
                try:
                    trainer.close()
                except Exception:  # noqa: BLE001 -- teardown must not mask the score
                    pass
            set_tracer(prev_tracer)


class ServeTrialRunner:
    """Runs serving-mode trials against a base ServeParams.

    Serving simulation is fully virtual-clocked, so serve tuning is
    deterministic regardless of measurement mode.  The score is QPS for
    arms meeting the p99 SLA; violators score the *negative* p99 excess
    (milliseconds), so any SLA-meeting arm outranks every violator and
    violators still order by how close they came.
    """

    def __init__(self, base: Any, sla_ms: float = 5.0):
        self.base = base
        self.sla_ms = sla_ms

    def run(self, overlay: dict[str, Any], arm_id: int, steps: int, rung: int) -> TrialResult:
        from repro.serve.driver import run_serving

        try:
            params = dataclasses.replace(
                self.base, **overlay, requests=max(64, steps)
            )
            _, row = run_serving(params)
            p99 = float(row["p99_ms"])
            qps = float(row["qps"])
            score = qps if p99 <= self.sla_ms else -(p99 - self.sla_ms)
            return TrialResult(
                arm_id=arm_id,
                overlay=overlay,
                rung=rung,
                steps=steps,
                ok=True,
                score=score,
                step_s=1.0 / qps if qps else None,
                breakdown={"p99_ms": p99, "qps": qps, "hit_rate": float(row.get("hit_rate", 0.0))},
                measured_stages={k: row[k] for k in ("p50_ms", "p95_ms", "p99_ms", "qps", "hit_rate") if k in row},
                bottleneck=attribute_serve(row, self.sla_ms),
            )
        except Exception as exc:  # noqa: BLE001 -- failed arms score, not abort
            return TrialResult.failed(arm_id, overlay, rung, steps, exc)
