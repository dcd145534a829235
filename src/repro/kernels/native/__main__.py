"""``python -m repro.kernels.native``: which tier this host runs, and does it work.

Prints the tier, the compiler and its version, the flags, the
``-march=`` / ``-mtune=`` the compiler resolves for them (``unknown``
when it will not say: a host GCC tunes as ``generic`` shows here), the
cached library and the source hash, then runs every native entry once
on inputs drawn from its contract (:data:`~repro.kernels.native.CONTRACTS`)
at :data:`SIZES` against its NumPy twin, and says whether this host's
BLAS gives the interaction the C loops' bits
(:func:`~repro.kernels.native.blas_agrees`) and the C uniform draw
NumPy's ``PCG64`` bits (:func:`~repro.kernels.native.pcg64_agrees`).
The four row kernels run again on the same arrays 16 bytes past a
line, and a second column says
whether the two gave the same bits.  Exits 1 on any ``FAIL``, or when
the tier is ``numpy`` (the reason is printed).
"""

from __future__ import annotations

import copy
import hashlib
import re
import shlex
import subprocess
import sys
from functools import partial

import numpy as np

from repro.kernels import interaction, native, rows, synth
from repro.kernels.native import build
from repro.kernels.workspace import Workspace, aligned_empty


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


#: Every native entry's NumPy twin, called with the entry's arguments: the
#: function :mod:`repro.kernels.dispatch` hands them to when the entry
#: declines, given what else it (and so the dispatch) takes: a scratch
#: block as a ``partial``'s keyword.
NUMPY_TIER = {
    "scatter_add_exact": rows.scatter_add,
    "pool_rows": partial(rows.pool_rows, scratch=Workspace()),
    "split_scatter_add": rows.split_scatter_add,
    "sgd_step": partial(rows.descend, scratch=np.empty(64, np.float32)),
    "split_sgd_step": partial(rows.split_sgd_step, scratch=np.empty(64, np.float32)),
    "zipf_ids": synth.zipf_ids,
    "teacher_bags": synth.teacher_bags,
    "dot_interaction": interaction.interact,
    "dot_interaction_backward": interaction.interact_backward,
    "uniform_fill": rows.uniform_fill,
}


def draw(entry: str, rng: np.random.Generator, sizes: dict[str, int], alt: int = 0) -> dict:
    """Arguments that meet ``entry``'s contract at ``sizes`` (the
    ``alt``-th dtype where a clause allows two): FP32 with -0.0 and ±inf
    mixed in, ``uint16`` the hi halves of such, float64 spread over three
    decades, ids under their bound, offsets from 0 to their end that
    leave the first bag empty, and -1 and 2**62 among ids with no
    bound."""
    out: dict = {}
    for clause in native.CONTRACTS[entry]:
        shape = tuple(sizes[name] + excess for name, excess, _ in clause.shape)
        dtype = clause.dtypes[min(alt, len(clause.dtypes) - 1)]
        one = partial(_values, rng, clause, dtype, shape, sizes)
        out[clause.name] = [one() for _ in range(sizes[clause.each])] if clause.each else one()
    return out


def _values(rng, clause, dtype: np.dtype, shape: tuple, sizes: dict[str, int]) -> np.ndarray:
    if clause.below:
        return rng.integers(0, sizes[clause.below], shape)
    if clause.rises_to:
        offsets = np.sort(rng.integers(0, sizes[clause.rises_to] + 1, shape))
        offsets[:2] = 0  # the first bag empty
        offsets[-1] = sizes[clause.rises_to]
        return offsets
    if dtype == np.int64:
        return np.concatenate([[-1, 2**62], rng.integers(0, 9, shape[0] - 2)])
    if dtype == np.float64:
        return np.abs(rng.standard_normal(shape)) * 10.0 ** rng.uniform(-1, 2, shape)
    a = rng.standard_normal(shape).astype(np.float32)
    mixed = rng.random(shape) < 1 / 16
    a[mixed] = rng.choice(np.array([-0.0, np.inf, -np.inf], np.float32), int(mixed.sum()))
    return a if dtype == np.float32 else (a.view(np.uint32) >> 16).astype(np.uint16)


#: The sizes the self-check draws at: 65-float rows are a vector body
#: and a tail and span 5 lines once 16 bytes past one, and 300 look-ups
#: outrun the row prefetch.
SIZES = {"rows": 50, "dim": 65, "n": 300, "bags": 12, "s": 3, "e": 20, "v": 4, "w": 26}
#: The self-check's lines: (name, entry, its other arguments, the dtype
#: drawn where a clause allows two, whether it runs again on the same
#: arrays 16 bytes past a line -- the row kernels, whose prefetch covers
#: every line a row spans).
LINES = (
    ("scatter_add_exact", "scatter_add_exact", {"scale": -0.05}, 0, True),
    ("pool_rows[fp32]", "pool_rows", {}, 0, True),
    ("pool_rows[bf16]", "pool_rows", {}, 1, True),
    ("split_scatter_add[16]", "split_scatter_add", {"keep_bits": 16, "scale": -0.05}, 0, True),
    ("split_scatter_add[8]", "split_scatter_add", {"keep_bits": 8, "scale": -0.05}, 0, False),
    ("sgd_step", "sgd_step", {"lr": 0.05}, 0, False),
    ("split_sgd_step", "split_sgd_step", {"lr": 0.05, "keep_bits": 16}, 0, False),
    ("zipf_ids[ranks]", "zipf_ids", {"n_items": 50, "scramble": False}, 0, False),
    ("zipf_ids[scrambled]", "zipf_ids", {"n_items": 50, "scramble": True}, 0, False),
    ("teacher_bags", "teacher_bags", {"mix": 2**64 - 59, "seed_mult": 7, "weight": 0.75}, 0, False),
    ("interaction[fwd]", "dot_interaction", {}, 0, False),
    ("interaction[bwd]", "dot_interaction_backward", {}, 0, False),
    ("uniform_fill", "uniform_fill", {"rng": np.random.default_rng(0), "low": -0.1, "high": 0.1}, 0, False),
)


def _placed(a, offset: int):
    """A copy of ``a`` (of each array in a list) whose first byte lies
    ``offset`` bytes past a line."""
    if isinstance(a, list):
        return [_placed(v, offset) for v in a]
    out = aligned_empty(a.nbytes + offset, np.uint8)[offset:].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def _call(fn, entry: str, inputs: dict, scalars: dict, offset: int = 0) -> tuple:
    """What ``fn`` returns on copies of ``inputs`` ``offset`` bytes past a
    line (and of ``scalars``: a generator draws from where the line's
    starts), and the bytes it returns and leaves in the written arguments."""
    args = {name: _placed(a, offset) for name, a in inputs.items()}
    got = fn(**args, **copy.deepcopy(scalars))
    arrays = got if isinstance(got, tuple) else (got,) if isinstance(got, np.ndarray) else ()
    arrays += tuple(args[c.name] for c in native.CONTRACTS[entry] if c.written)
    return got, [(a.shape, a.dtype.str, a.tobytes()) for a in arrays]


def checks() -> dict[str, tuple[bool, bool | None]]:
    """Line -> (did the native entry run and give its NumPy twin's bits,
    and the same bits 16 bytes past a line -- None where not run)."""
    out = {}
    with np.errstate(all="ignore"):
        for line, entry, scalars, alt, off_line in LINES:
            inputs = draw(entry, np.random.default_rng(0), SIZES, alt)
            fn = getattr(native, entry)
            _, want = _call(NUMPY_TIER[entry], entry, inputs, scalars)
            ran, got = _call(fn, entry, inputs, scalars)
            moved = _call(fn, entry, inputs, scalars, 16)[1] == got if off_line else None
            out[line] = (ran is not None and ran is not False and got == want, moved)
    out["blas agrees"] = (native.blas_agrees(), None)
    out["pcg64 agrees"] = (native.pcg64_agrees(), None)
    return out


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
    results = checks()
    word = {True: "ok", False: "FAIL"}
    for name, (ok, moved) in results.items():
        beside = "" if moved is None else f"  off-line {word[moved]}"
        print(f"{name:<22} {word[ok]}{beside}")
    return 0 if all(ok and moved is not False for ok, moved in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
