"""Deterministic fault injection: :class:`FaultPlan` / :class:`FaultPoint`.

A fault plan is data -- a list of points, each naming an injection
*site* (a string the instrumented code fires at), an *action*, and
optional match keys (step, worker, replica, request, round sequence).
Sites fire with their runtime context; a point matches when every key it
pins equals the context value, and each point is armed for ``count``
firings (default one).  Matching is pure, so a plan injects the same
failure at the same place every run -- chaos tests stay reproducible.

Actions the plan applies itself at :meth:`FaultPlan.fire`:

``kill``
    ``os._exit`` -- the sudden-death worker failure (no cleanup, no
    barrier abort; the parent's liveness polling must catch it).
``hang``
    sleep ``seconds`` (default 3600) -- the silent-stall failure a
    heartbeat deadline must convert into a typed timeout.
``raise``
    raise :class:`~repro.resilience.errors.InjectedFault` -- an ordinary
    crash that travels the normal error path (traceback and all).
``delay``
    sleep ``seconds`` then continue -- a slow collective / straggler.

Actions the *call site* applies (fire returns the matched point):

``torn_write``
    mailbox publish lands with a stale round sequence (seqlock tear).
``corrupt``
    the just-written checkpoint file gets bytes flipped.
``die`` / ``slow`` / ``error``
    serve-replica failures, interpreted on virtual time by
    :class:`repro.serve.replica.ReplicaSet`.

The one-line syntax (``repro train --fault ...``)::

    worker.step:step=3,worker=1,action=kill;ckpt.save:step=6,action=corrupt

Known sites: ``train.step`` (parent loop, before the step),
``worker.step`` (inside a process-rank worker, before compute),
``comm.exchange`` (before a mailbox round: delay/kill/hang),
``mailbox.publish`` (torn_write), ``ckpt.save`` (corrupt, after write),
``serve.replica`` (die/slow/error, matched on replica and request
index).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.resilience.errors import InjectedFault

#: Exit status of a ``kill`` action -- distinctive in ``proc.exitcode``.
KILL_EXIT = 87

#: Context keys a point may pin; everything else in the fired context is
#: informational only.
_MATCH_KEYS = ("step", "worker", "replica", "request", "seq")

_SELF_APPLIED = ("kill", "hang", "raise", "delay")
_CALLER_APPLIED = ("torn_write", "corrupt", "die", "slow", "error")


@dataclass
class FaultPoint:
    """One armed failure: fire ``action`` at ``site`` when the pinned
    match keys equal the firing context, up to ``count`` times."""

    site: str
    action: str
    step: int | None = None
    worker: int | None = None
    replica: int | None = None
    request: int | None = None
    seq: int | None = None
    seconds: float = 0.0
    count: int = 1
    #: Firings left; decremented by :meth:`FaultPlan.fire`.
    remaining: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.action not in _SELF_APPLIED + _CALLER_APPLIED:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: "
                f"{_SELF_APPLIED + _CALLER_APPLIED}"
            )
        if self.remaining < 0:
            self.remaining = self.count

    def matches(self, site: str, ctx: dict[str, Any]) -> bool:
        if self.remaining <= 0 or site != self.site:
            return False
        for key in _MATCH_KEYS:
            want = getattr(self, key)
            if want is not None and ctx.get(key) != want:
                return False
        return True

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"site": self.site, "action": self.action}
        for key in _MATCH_KEYS:
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.seconds:
            out["seconds"] = self.seconds
        if self.count != 1:
            out["count"] = self.count
        return out


class FaultPlan:
    """An ordered set of fault points plus a record of what fired.

    Plans are picklable (they ride to process-rank workers inside the
    build recipe), and *copies diverge*: a worker's plan decrements its
    own arming counts.  A restarting trainer therefore disarms its
    copy explicitly (:meth:`disarm_through`) before a respawn so replay
    does not re-fire the failure it is recovering from.
    """

    def __init__(self, points: list[FaultPoint] | None = None):
        self.points = list(points or [])
        #: Fired events, in firing order: {site, action, **ctx}.
        self.fired: list[dict[str, Any]] = []

    def __bool__(self) -> bool:
        return bool(self.points)

    def __len__(self) -> int:
        return len(self.points)

    # -- firing --------------------------------------------------------------

    def match(self, site: str, **ctx: Any) -> FaultPoint | None:
        """The first armed point matching ``site``/``ctx`` (decrements
        its arming count and records the event), or None."""
        for point in self.points:
            if point.matches(site, ctx):
                point.remaining -= 1
                self.fired.append({"site": site, "action": point.action, **ctx})
                return point
        return None

    def fire(self, site: str, **ctx: Any) -> FaultPoint | None:
        """Match, then apply self-applied actions (kill/hang/raise/delay).
        Returns the matched point so call sites can apply the rest
        (torn_write/corrupt/die/slow/error) themselves."""
        point = self.match(site, **ctx)
        if point is None:
            return None
        if point.action == "kill":
            os._exit(KILL_EXIT)
        elif point.action == "hang":
            time.sleep(point.seconds or 3600.0)
        elif point.action == "raise":
            raise InjectedFault(f"injected fault at {site} ({ctx})")
        elif point.action == "delay":
            time.sleep(point.seconds)
        return point

    def disarm_through(self, step: int) -> int:
        """Disarm every step-pinned point with ``point.step <= step``;
        returns how many were disarmed.  A restarting trainer calls this
        with the failure step before respawning, so the recovery replay runs
        past the old injection site untouched."""
        n = 0
        for point in self.points:
            if point.step is not None and point.step <= step and point.remaining > 0:
                point.remaining = 0
                n += 1
        return n

    # -- round trip ----------------------------------------------------------

    def to_dict(self) -> list[dict[str, Any]]:
        return [p.to_dict() for p in self.points]

    @classmethod
    def from_dict(cls, data: list[dict[str, Any]]) -> "FaultPlan":
        return cls([FaultPoint(**dict(p)) for p in data])

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the one-line CLI syntax (see module docstring)."""
        points: list[FaultPoint] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, _, rest = chunk.partition(":")
            site = site.strip()
            if not site or not rest:
                raise ValueError(
                    f"bad fault spec {chunk!r}: want 'site:key=val,...'"
                )
            kwargs: dict[str, Any] = {"site": site}
            for item in rest.split(","):
                key, _, value = item.partition("=")
                key = key.strip()
                value = value.strip()
                if not key or not value:
                    raise ValueError(f"bad fault spec item {item!r} in {chunk!r}")
                if key in _MATCH_KEYS or key == "count":
                    kwargs[key] = int(value)
                elif key == "seconds":
                    kwargs[key] = float(value)
                elif key == "action":
                    kwargs[key] = value
                else:
                    raise ValueError(
                        f"unknown fault key {key!r} in {chunk!r}; known: "
                        f"action, seconds, count, {', '.join(_MATCH_KEYS)}"
                    )
            if "action" not in kwargs:
                raise ValueError(f"fault spec {chunk!r} is missing action=")
            points.append(FaultPoint(**kwargs))
        return cls(points)

    def __str__(self) -> str:
        chunks = []
        for p in self.points:
            items = [f"{k}={v}" for k, v in p.to_dict().items() if k != "site"]
            chunks.append(f"{p.site}:{','.join(items)}")
        return ";".join(chunks)


def corrupt_file(path: str | Path, nbytes: int = 64) -> None:
    """Flip ``nbytes`` bytes in the middle of ``path`` in place -- the
    ``corrupt`` action's implementation (deterministic: fixed offset,
    fixed XOR mask)."""
    path = Path(path)
    size = path.stat().st_size
    offset = max(0, size // 2 - nbytes // 2)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        chunk = fh.read(nbytes)
        fh.seek(offset)
        fh.write(bytes(b ^ 0xFF for b in chunk))
