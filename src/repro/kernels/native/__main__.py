"""``python -m repro.kernels.native``: which tier this host runs, and does it work.

Prints the tier, the compiler and its version, the flags, the
``-march=`` / ``-mtune=`` the compiler resolves for them (``unknown``
when it will not say: a host GCC tunes as ``generic`` shows here), the
cached library and the source hash, then runs every native kernel once
on a small fixed input against :mod:`repro.kernels.reference` (the NumPy tier
for the Split-BF16 and dense steps, the two data kernels and the dot
interaction, which have no ``np.add.at`` spelling), and says whether
this host's BLAS gives the interaction the C loops' bits
(:func:`~repro.kernels.native.blas_agrees`).  The four row kernels then
run again on 256-byte rows, once line-aligned and once 16 bytes past a line, and a
second column says whether the two gave the same bits.  Exits 1 on any
``FAIL``, or when the tier is ``numpy`` (the reason is printed).
"""

from __future__ import annotations

import hashlib
import re
import shlex
import subprocess
import sys

import numpy as np

from repro.kernels import interaction, native, reference, rows, synth
from repro.kernels.native import build
from repro.kernels.workspace import aligned_empty


def _compiler_line() -> str:
    try:
        cc = build.compiler()
        out = subprocess.run([*shlex.split(cc), "--version"], capture_output=True, text=True)
        return f"{cc} ({(out.stdout or out.stderr).strip().splitlines()[0]})"
    except (build.Unavailable, OSError, IndexError) as exc:
        return f"unavailable ({exc})"


def _tuning_line() -> str:
    try:
        cmd = [*shlex.split(build.compiler()), *build.FLAGS, "-Q", "--help=target"]
        out = subprocess.run(cmd, capture_output=True, text=True).stdout
    except (build.Unavailable, OSError):
        return "unknown"
    found = [re.search(rf"^\s+(-m{key}=)\s+(\S+)$", out, re.MULTILINE) for key in ("arch", "tune")]
    return " ".join(m[1] + m[2] for m in found) if all(found) else "unknown"


def _same(*pairs: tuple[np.ndarray, np.ndarray]) -> bool:
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)


def checks() -> dict[str, bool]:
    """Kernel name -> did the native entry run and match its oracle."""
    rng = np.random.default_rng(0)
    table_rows, dim, bags = 50, 5, 12
    w = rng.standard_normal((table_rows, dim)).astype(np.float32)
    w[3], w[4, 0] = -0.0, np.inf
    idx = rng.integers(0, 9, size=64, dtype=np.int64)  # duplicate-heavy
    offsets = np.sort(rng.integers(0, idx.size + 1, size=bags - 1))
    offsets = np.concatenate([[0], offsets, [idx.size]]).astype(np.int64)
    bag_ids = np.repeat(np.arange(bags), np.diff(offsets))
    grads = rng.standard_normal((bags, dim)).astype(np.float32)
    hi, lo = (w.view(np.uint32) >> 16).astype(np.uint16), w.view(np.uint32).astype(np.uint16)
    widened = (hi.astype(np.uint32) << 16).view(np.float32)
    out: dict[str, bool] = {}

    want, got = w.copy(), w.copy()
    reference.scatter_add(want, idx, grads[bag_ids])
    ran = native.scatter_add_exact(got, idx, grads, value_rows=bag_ids)
    out["scatter_add_exact"] = ran and _same((got, want))

    for name, source, dense in (("fp32", w, w), ("bf16", hi, widened)):
        got = native.pool_rows(source, idx, offsets)
        want = reference.segment_sum(dense[idx], offsets)
        out[f"pool_rows[{name}]"] = got is not None and _same((got, want))

    for keep_bits in (16, 8):
        pairs = [(hi.copy(), lo & rows.lo_mask(keep_bits)) for _ in range(2)]
        rows.split_add_aggregated(
            *pairs[0], keep_bits, *reference.aggregate_duplicates(idx, grads[bag_ids])
        )
        ran = native.split_scatter_add(*pairs[1], keep_bits, idx, grads, value_rows=bag_ids)
        out[f"split_scatter_add[{keep_bits}]"] = ran and _same(*zip(*pairs))

    flat, g = w.reshape(-1), rng.standard_normal(w.size).astype(np.float32)
    want, got = flat.copy(), flat.copy()
    rows.descend(want, g, 0.05, np.empty(w.size, np.float32))
    out["sgd_step"] = native.sgd_step(got, g, 0.05) and _same((got, want))

    halves = [(widened.reshape(-1).copy(), lo.reshape(-1).copy()) for _ in range(2)]
    rows.split_sgd_step(*halves[0], g, 0.05, 16, np.empty(w.size, np.float32))
    ran = native.split_sgd_step(*halves[1], g, 0.05, 16)
    out["split_sgd_step"] = ran and _same(*zip(*halves))

    x = np.concatenate([[0.5, 1.0, 7.9, 50.0, 51.0], 1.0 / (1.0 - rng.random(200))])
    for name, scramble in (("ranks", False), ("scrambled", True)):
        got, want = native.zipf_ids(x, 50, scramble), synth.zipf_ids(x, 50, scramble)
        out[f"zipf_ids[{name}]"] = got is not None and _same((got, want))

    ids = np.concatenate([idx, [-1, 2**62]])
    ragged = np.append(offsets, ids.size)
    want, got = np.zeros((2, bags + 1))
    synth.teacher_bags(ids, ragged, 0x9E3779B97F4A7C15, 7, 0.75, want)
    ran = native.teacher_bags(ids, ragged, 0x9E3779B97F4A7C15, 7, 0.75, got)
    out["teacher_bags"] = ran and _same((got, want))

    vecs = [rng.standard_normal((6, 20)).astype(np.float32) for _ in range(4)]
    zs = np.empty((2, 6, 4, 20), np.float32)
    want = interaction.interact(vecs[0], vecs[1:], zs[0])
    got = native.dot_interaction(vecs[0], vecs[1:], zs[1])
    out["interaction[fwd]"] = got is not None and _same((got, want), (zs[1], zs[0]))
    dout = rng.standard_normal(want.shape).astype(np.float32)
    got = native.dot_interaction_backward(zs[0], dout)
    want = interaction.interact_backward(zs[0], dout)
    out["interaction[bwd]"] = got is not None and _same(*zip(got, want))
    out["blas agrees"] = native.blas_agrees()
    return out


def _placed(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``a`` whose first byte lies ``offset`` bytes past a line."""
    out = aligned_empty(a.nbytes + offset, np.uint8)[offset:].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def offset_checks(offset: int = 16) -> dict[str, bool]:
    """Row kernel name -> same bits on a line-aligned table and on a copy
    ``offset`` bytes past a line, where each 256-byte row spans 5 lines."""
    rng = np.random.default_rng(1)
    w = rng.standard_normal((40, 64)).astype(np.float32)
    idx = rng.integers(0, 40, size=300, dtype=np.int64)  # more than AHEAD, duplicates
    offsets = np.array([0, 0, 100, 300], dtype=np.int64)  # one bag empty
    bag_ids = np.repeat(np.arange(3), np.diff(offsets))
    grads = rng.standard_normal((3, 64)).astype(np.float32)
    halves = (w.view(np.uint32) >> 16).astype(np.uint16), w.view(np.uint32).astype(np.uint16)

    def run(at: int) -> list:  # the pools read the tables before the updates write them
        weight, hi, lo, deltas = (_placed(a, at) for a in (w, *halves, grads))
        return [
            native.pool_rows(weight, idx, offsets),
            native.pool_rows(hi, idx, offsets),
            native.scatter_add_exact(weight, idx, deltas, bag_ids) and weight,
            native.split_scatter_add(hi, lo, 16, idx, deltas, bag_ids) and np.stack([hi, lo]),
        ]

    names = ("pool_rows[fp32]", "pool_rows[bf16]", "scatter_add_exact", "split_scatter_add[16]")
    return {
        name: all(isinstance(a, np.ndarray) for a in pair) and _same(pair)
        for name, pair in zip(names, zip(run(0), run(offset)))
    }


def main() -> int:
    lib, where = build.load()
    print(f"tier      {native.tier()}")
    print(f"compiler  {_compiler_line()}")
    print(f"flags     {' '.join(build.FLAGS)}")
    print(f"tuning    {_tuning_line()}")
    print(f"source    {build.SOURCE} sha256 {hashlib.sha256(build.source_bytes()).hexdigest()[:16]}")
    if lib is None:
        print(f"reason    {where}")
        return 1
    print(f"library   {where}")
    results, moved = checks(), offset_checks()
    word = {True: "ok", False: "FAIL"}
    for name, ok in results.items():
        beside = f"  off-line {word[moved[name]]}" if name in moved else ""
        print(f"{name:<22} {word[ok]}{beside}")
    return 0 if all(results.values()) and all(moved.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
