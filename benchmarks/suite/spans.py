"""In-memory span recorder that instruments the program from outside.

The benchmark owns its tracing: this module patches *public methods on
their classes* from the benchmark process only, records one span per
call (name, start ns, end ns, parent id, op id, an optional work
count), and restores the originals when the traced section ends.
Nothing under ``src/`` is edited, module-level kernel functions are
never patched, and the untraced section runs the unpatched classes --
so the difference between the two sections is the tracing overhead.

A span's *self time* is its duration minus the part covered by its
child spans; summed per name it says where an operation's wall time
went, layer by layer.  All workloads run inline on one thread, so one
open-span stack is enough.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter_ns

#: ``count(args, kwargs) -> int``: work items of one call (rows, bytes,
#: parameters), read from the call's own arguments; ``args[0]`` is self.
CountFn = Callable[[tuple, dict], int]


class SpanRecorder:
    """Parallel-list span store plus the class patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: list[int] = []
        #: Operation (training step / scored micro-batch) the next spans
        #: belong to; the benchmark's step callback advances it.
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[type, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, count: int = 0) -> int:
        """Start a span under the innermost open one; returns its id."""
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.counts.append(count)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(_clock())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = _clock()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.names[sid]!r} closed out of order")

    # -- patching -----------------------------------------------------------

    def wrap(
        self, cls: type, method: str, name: str, count: CountFn | None = None
    ) -> None:
        """Replace ``cls.method`` with a span-recording wrapper.

        Only a method defined on ``cls`` itself is accepted: patching an
        inherited one would silently shadow the base class for this
        subclass alone.  Subclasses that do *not* override the method
        are covered by the patch on their base.
        """
        if method not in vars(cls):
            raise AttributeError(f"{cls.__name__} does not define {method!r}")
        original = vars(cls)[method]
        rec_open, rec_close = self.open, self.close

        if count is None:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                sid = rec_open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    rec_close(sid)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                sid = rec_open(name, count(args, kwargs))
                try:
                    return original(*args, **kwargs)
                finally:
                    rec_close(sid)

        setattr(cls, method, wrapper)
        self._patched.append((cls, method, original))

    def unpatch(self) -> None:
        """Restore every patched method (reverse order of patching)."""
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)

    # -- reduction ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``ns``, ``self_ns`` and the
        summed work ``count`` over every recorded span."""
        child_ns = [0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[sid] - self.starts[sid]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ns": 0, "self_ns": 0, "count": 0}
        )
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            row = out[name]
            row["calls"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - child_ns[sid]
            row["count"] += self.counts[sid]
        return dict(out)

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span: id, name, start/end ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ns": self.starts[sid],
                            "end_ns": self.ends[sid],
                            "parent": self.parents[sid],
                            "op": self.ops[sid],
                            "count": self.counts[sid],
                        }
                    )
                    + "\n"
                )
