"""Callback protocol for the Trainer: hooks around steps, evals and runs.

The bespoke training loops this package replaces (``examples/*``,
``bench/convergence.py``) differed only in what they did *around* the
identical ``train_step`` call -- print a loss, evaluate AUC every k
steps, mutate the learning rate, stop early, save a checkpoint.  Each of
those is a :class:`Callback` here; the Trainer owns the loop and fires
the hooks in registration order.

Hooks receive the trainer, so callbacks can read the model, optimizer,
step counter and last evaluation, and can set ``trainer.should_stop``.
Ordering matters when callbacks communicate through trainer state:
register :class:`PeriodicEval` before :class:`EarlyStopping` so the
stopper sees the evaluation of the step that just finished.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.train.trainer import Trainer


class Callback:
    """Base class: every hook is a no-op; override what you need."""

    def on_fit_start(self, trainer: "Trainer") -> None:
        """Called once when ``fit`` begins."""

    def on_step_start(self, trainer: "Trainer", step: int) -> None:
        """Called before each training step (``step`` is the global step)."""

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        """Called after each training step with its loss."""

    def on_eval(self, trainer: "Trainer", step: int, metrics: dict[str, float]) -> None:
        """Called after each evaluation with its metric dict."""

    def on_fit_end(self, trainer: "Trainer") -> None:
        """Called once when ``fit`` finishes (normally or early-stopped)."""


class CallbackList(Callback):
    """Dispatches every hook to an ordered list of callbacks."""

    def __init__(self, callbacks: list[Callback] | tuple[Callback, ...] = ()):
        self.callbacks = list(callbacks)

    def on_fit_start(self, trainer: "Trainer") -> None:
        for cb in self.callbacks:
            cb.on_fit_start(trainer)

    def on_step_start(self, trainer: "Trainer", step: int) -> None:
        for cb in self.callbacks:
            cb.on_step_start(trainer, step)

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        for cb in self.callbacks:
            cb.on_step_end(trainer, step, loss)

    def on_eval(self, trainer: "Trainer", step: int, metrics: dict[str, float]) -> None:
        for cb in self.callbacks:
            cb.on_eval(trainer, step, metrics)

    def on_fit_end(self, trainer: "Trainer") -> None:
        for cb in self.callbacks:
            cb.on_fit_end(trainer)


class MetricLogger(Callback):
    """Records (step, loss) pairs and evaluation rows; optionally prints.

    ``history`` holds every step's loss; ``eval_history`` holds one dict
    per evaluation (step plus the metric values).  ``print_every > 0``
    also prints a line every that-many steps (the quickstart behaviour).
    """

    def __init__(self, print_every: int = 0):
        self.print_every = print_every
        self.history: list[tuple[int, float]] = []
        self.eval_history: list[dict[str, float]] = []

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        self.history.append((step, loss))
        if self.print_every and (step % self.print_every == 0):
            print(f"  step {step:4d}  loss = {loss:.4f}")

    def on_eval(self, trainer: "Trainer", step: int, metrics: dict[str, float]) -> None:
        self.eval_history.append({"step": step, **metrics})

    @property
    def losses(self) -> list[float]:
        return [loss for _, loss in self.history]


class PeriodicEval(Callback):
    """Evaluate every ``every`` steps (and optionally once at fit end).

    Runs ``trainer.evaluate()`` -- held-out batch, no training state
    disturbed -- then fires ``on_eval`` on the whole callback list and
    stores the result as ``trainer.last_eval``.
    """

    def __init__(self, every: int, at_end: bool = False):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.at_end = at_end

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        if (step + 1) % self.every == 0:
            trainer.run_eval(step)

    def on_fit_end(self, trainer: "Trainer") -> None:
        if self.at_end and (trainer.step % self.every != 0):
            trainer.run_eval(trainer.step - 1)


class EarlyStopping(Callback):
    """Stop when a monitored metric stops improving.

    ``monitor`` is ``"loss"`` (training loss, checked every step) or any
    key of the evaluation dict (``"auc"``, ``"eval_loss"``, ... --
    checked whenever an evaluation lands).  ``mode`` is inferred:
    metrics containing ``loss`` minimise, everything else maximises.
    """

    def __init__(
        self,
        monitor: str = "loss",
        patience: int = 5,
        min_delta: float = 0.0,
        mode: str | None = None,
    ):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.monitor = monitor
        self.patience = patience
        self.min_delta = float(min_delta)
        self.mode = mode or ("min" if "loss" in monitor else "max")
        if self.mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {self.mode!r}")
        self.best: float | None = None
        self.stale = 0
        self.stopped_at: int | None = None

    def _observe(self, trainer: "Trainer", step: int, value: float) -> None:
        improved = self.best is None or (
            value < self.best - self.min_delta
            if self.mode == "min"
            else value > self.best + self.min_delta
        )
        if improved:
            self.best = value
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                trainer.should_stop = True
                self.stopped_at = step

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        if self.monitor == "loss":
            self._observe(trainer, step, loss)

    def on_eval(self, trainer: "Trainer", step: int, metrics: dict[str, float]) -> None:
        if self.monitor in metrics:
            self._observe(trainer, step, metrics[self.monitor])


class LRScheduleCallback(Callback):
    """Drive the optimizer's learning rate from a schedule.

    The schedule only needs an ``lr_at(step)`` method (e.g.
    :class:`repro.core.schedule.WarmupDecaySchedule`).  The rate is a
    pure function of the *global* step, so a resumed run replays the
    exact schedule -- the property the resume-bit-identity test pins.
    """

    def __init__(self, schedule: Any):
        if not hasattr(schedule, "lr_at"):
            raise TypeError("schedule must expose lr_at(step)")
        self.schedule = schedule
        self.last_lr: float | None = None

    def on_step_start(self, trainer: "Trainer", step: int) -> None:
        # The executor sets it on every optimizer it owns (in whatever
        # process they live) at the top of this step.
        trainer.lr = self.last_lr = float(self.schedule.lr_at(step))


class StepTimer(Callback):
    """Wall-clock profiler hook: per-step times and a summary.

    ``times`` holds one wall-time per executed step; ``mean_ms``/
    ``total_s``/``percentile_ms`` summarise, and :meth:`summary` renders
    the distribution (p50/p95/p99) -- plus, when handed drained tracer
    spans, the per-stage breakdown -- as printable lines.  (The
    simulated cluster has its own virtual clocks; this measures the
    *host* loop, which is what you tune when the trainer itself is the
    bottleneck.)
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._t0: float | None = None

    def on_step_start(self, trainer: "Trainer", step: int) -> None:
        self._t0 = time.perf_counter()

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        if self._t0 is not None:
            self.times.append(time.perf_counter() - self._t0)
            self._t0 = None

    @property
    def total_s(self) -> float:
        return sum(self.times)

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.total_s / len(self.times) if self.times else 0.0

    def percentile_ms(self, q: float) -> float:
        """The ``q``-th percentile step time in ms (nearest-rank)."""
        if not (0.0 <= q <= 100.0):
            raise ValueError("percentile must be in [0, 100]")
        if not self.times:
            return 0.0
        ordered = sorted(self.times)
        rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return 1e3 * ordered[rank]

    def summary(self, spans: list[dict] | None = None) -> str:
        """Printable step-time summary; pass drained tracer spans (e.g.
        ``trainer.drain_trace_spans()``) to append the per-stage table."""
        lines = [
            f"steps: {len(self.times)}  total {self.total_s:.3f} s  "
            f"mean {self.mean_ms:.3f} ms  "
            f"p50 {self.percentile_ms(50):.3f} ms  "
            f"p95 {self.percentile_ms(95):.3f} ms  "
            f"p99 {self.percentile_ms(99):.3f} ms"
        ]
        if spans:
            from repro.obs.aggregate import stage_table
            from repro.util import format_table

            lines.append(format_table(stage_table(spans)))
        return "\n".join(lines)
