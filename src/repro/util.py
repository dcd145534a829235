"""Small shared utilities: stable seeded RNG streams, deterministic retry,
plain-text tables.

NumPy's ``SeedSequence`` accepts only integers, so hierarchical stream
labels ("table 3 of seed 7") are hashed to stable 64-bit integers first.
Stability matters: the distributed == single-process equivalence tests
rely on every process deriving bit-identical table weights from the same
(seed, label) keys, regardless of which rank instantiates them.

:func:`retry` is the one retry loop shared by everything that touches a
racy resource (shared-memory segment creation in :mod:`repro.exec.mp`,
checkpoint writes in :mod:`repro.train.checkpoint`): capped exponential
backoff whose jitter comes from the same seeded-stream machinery, so a
retried run sleeps the exact same schedule every time.

:func:`format_table` renders the dict-rows every CLI command, benchmark
and example prints.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def seed_key(*parts: object) -> list[int]:
    """Map arbitrary hashable parts to a stable entropy list."""
    out: list[int] = []
    for p in parts:
        if isinstance(p, (int, np.integer)):
            out.append(int(p) & 0xFFFFFFFFFFFFFFFF)
        else:
            digest = hashlib.sha256(repr(p).encode()).digest()
            out.append(int.from_bytes(digest[:8], "little"))
    return out


def rng_from(*parts: object) -> np.random.Generator:
    """A deterministic Generator for the stream labelled by ``parts``."""
    return np.random.default_rng(seed_key(*parts))


def backoff_delays(
    attempts: int,
    backoff: float,
    cap: float = 30.0,
    jitter_seed: object = 0,
) -> list[float]:
    """The sleep schedule :func:`retry` uses, as data.

    ``attempts - 1`` delays (no sleep after the final attempt): capped
    exponential ``backoff * 2**k``, each scaled by a jitter factor in
    ``[1.0, 1.5)`` drawn from the ``("retry", jitter_seed)`` stream --
    deterministic for a given seed, decorrelated across seeds (give each
    contending caller its own seed, e.g. a worker index).
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if backoff < 0:
        raise ValueError("backoff must be non-negative")
    rng = rng_from("retry", jitter_seed)
    return [
        min(cap, backoff * (2.0**k)) * (1.0 + 0.5 * rng.random())
        for k in range(attempts - 1)
    ]


def retry(
    fn: Callable[[], T],
    attempts: int = 3,
    backoff: float = 0.05,
    cap: float = 30.0,
    jitter_seed: object = 0,
    retry_on: tuple[type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` up to ``attempts`` times with seeded-jitter backoff.

    Retries only on ``retry_on`` exceptions (transient-by-convention:
    ``OSError`` covers the shm ``EEXIST``/``ENOSPC`` races and torn
    filesystem writes); anything else propagates immediately, and the
    final attempt's exception propagates unwrapped.  The jitter schedule
    is :func:`backoff_delays` -- a pure function of
    ``(attempts, backoff, cap, jitter_seed)`` -- so failure handling
    never introduces nondeterminism into an otherwise bit-exact run.
    """
    delays = backoff_delays(attempts, backoff, cap=cap, jitter_seed=jitter_seed)
    for k in range(attempts):
        try:
            return fn()
        except retry_on:
            if k == attempts - 1:
                raise
            if delays[k] > 0:
                sleep(delays[k])
    raise AssertionError("unreachable")  # pragma: no cover


def format_seconds(seconds: float) -> str:
    """Human-readable duration (the paper reports ms per iteration)."""
    if seconds < 0:
        raise ValueError("negative duration")
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.1f} us"
    return f"{seconds * 1e9:.0f} ns"


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str = "",
) -> str:
    """Render dict-rows as an aligned ASCII table (floats as ``.3g``)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())

    def cell(v: object) -> str:
        return format(v, ".3g") if isinstance(v, float) else str(v)

    rendered = [[cell(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in rendered)) for i, c in enumerate(cols)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rendered)
    out = f"{header}\n{sep}\n{body}"
    if title:
        out = f"{title}\n{out}"
    return out
