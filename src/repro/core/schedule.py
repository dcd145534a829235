"""Learning-rate schedules (MLPerf DLRM convergence-run style).

The MLPerf recommendation benchmark the paper targets trains with a
linear warmup followed by a hold and a polynomial/linear decay.  The
rate is a pure function of the global step (:meth:`lr_at`);
:class:`repro.train.callbacks.LRScheduleCallback` hands it to the
executor, which sets it on every optimizer it owns -- all ranks' alike,
so distributed optimizers stay in lock-step and a resumed run replays
the exact schedule.
"""

from __future__ import annotations


class WarmupDecaySchedule:
    """Linear warmup -> hold at peak -> linear decay to ``final_lr``."""

    def __init__(
        self,
        peak_lr: float,
        warmup_steps: int,
        hold_steps: int = 0,
        decay_steps: int = 0,
        final_lr: float = 0.0,
        start_lr: float = 0.0,
    ):
        if peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if min(warmup_steps, hold_steps, decay_steps) < 0:
            raise ValueError("step counts must be non-negative")
        if not 0 <= final_lr <= peak_lr:
            raise ValueError("final_lr must be in [0, peak_lr]")
        if not 0 <= start_lr <= peak_lr:
            raise ValueError("start_lr must be in [0, peak_lr]")
        self.peak_lr = peak_lr
        self.warmup_steps = warmup_steps
        self.hold_steps = hold_steps
        self.decay_steps = decay_steps
        self.final_lr = final_lr
        self.start_lr = start_lr

    def lr_at(self, step: int) -> float:
        """The learning rate scheduled for (0-based) ``step``."""
        if step < 0:
            raise ValueError("step must be non-negative")
        if step < self.warmup_steps:
            frac = (step + 1) / self.warmup_steps
            return self.start_lr + (self.peak_lr - self.start_lr) * frac
        step -= self.warmup_steps
        if step < self.hold_steps:
            return self.peak_lr
        step -= self.hold_steps
        if self.decay_steps == 0 or step >= self.decay_steps:
            return self.final_lr if self.decay_steps else self.peak_lr
        frac = step / self.decay_steps
        return self.peak_lr + (self.final_lr - self.peak_lr) * frac
