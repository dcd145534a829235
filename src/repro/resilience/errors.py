"""Typed failure taxonomy for :mod:`repro.resilience`.

Every class subclasses :class:`RuntimeError` so existing ``except
RuntimeError`` recovery paths (and tests matching on message text) keep
working; the subclasses add the structured fields a restart needs to
diagnose and recover -- which worker, which ranks, how stale its last
heartbeat was, whether the process is even alive.
"""

from __future__ import annotations


class ResilienceError(RuntimeError):
    """Base of every typed failure raised by the resilience machinery."""


class InjectedFault(ResilienceError):
    """Raised by a :class:`~repro.resilience.faults.FaultPoint` whose
    action is ``raise`` -- a deliberate, deterministic crash for chaos
    tests.  Never raised outside an armed fault plan."""


class CheckpointCorrupt(ResilienceError):
    """A checkpoint failed integrity verification (bad CRC, truncated
    archive, unreadable zip).  Carries the path and the offending keys
    so the ring can quarantine the file and fall back."""

    def __init__(self, path: str, detail: str, bad_keys: list[str] | None = None):
        self.path = str(path)
        self.bad_keys = list(bad_keys or [])
        super().__init__(f"corrupt checkpoint {path}: {detail}")


class WorkerFailure(ResilienceError):
    """A process-rank worker failed; base of timeout/crash variants.

    ``worker_index``/``rank_range`` identify the worker, ``alive`` says
    whether its process still exists, ``heartbeat_age`` is seconds since
    its last heartbeat stamp (None when no board was installed), and
    ``worker_traceback`` is the remote traceback when one crossed the
    pipe before the failure.
    """

    def __init__(
        self,
        message: str,
        worker_index: int | None = None,
        rank_range: tuple[int, int] | None = None,
        alive: bool | None = None,
        heartbeat_age: float | None = None,
        worker_traceback: str | None = None,
    ):
        self.worker_index = worker_index
        self.rank_range = rank_range
        self.alive = alive
        self.heartbeat_age = heartbeat_age
        self.worker_traceback = worker_traceback
        super().__init__(message)

    def diagnostics(self) -> dict:
        """The structured fields, JSON-ready (for recovery-event logs)."""
        return {
            "error": type(self).__name__,
            "message": str(self),
            "worker_index": self.worker_index,
            "rank_range": list(self.rank_range) if self.rank_range else None,
            "alive": self.alive,
            "heartbeat_age": self.heartbeat_age,
        }


class WorkerTimeout(WorkerFailure):
    """No reply from a worker within the deadline: either a silent hang
    (process alive, heartbeat stale) or a barrier deadlock."""


class WorkerCrash(WorkerFailure):
    """A worker died (process gone / pipe EOF) or reported an error;
    ``worker_traceback`` carries the remote traceback when it reported
    one before dying."""
