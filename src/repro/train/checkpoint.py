"""Bit-exact, durable ``.npz`` checkpoints: model + optimizer + step + spec.

A checkpoint is a flat dict of numpy arrays in an ``np.savez`` archive,
so nothing is pickled and every tensor round-trips bit-for-bit --
including the uint16 hi/lo halves of Split-BF16 storage, momentum
velocities and Adagrad accumulators.  Layout::

    model.<key>   one entry per DLRM.state_dict() key
    opt.<key>     one entry per optimizer state_dict() key
    meta.step     global step count (int64 scalar)
    meta.spec     the RunSpec as JSON (unicode scalar; empty if unknown)
    meta.version  checkpoint format version
    meta.crc      JSON {key: crc32-of-bytes} over every other entry

A save streams each member from the array it is handed (executors
hand views of the live storage), CRC32'd over its own buffer, with
``meta.crc`` last.  Durability (format v2): a same-directory temp file
is fsynced, ``os.replace``-d into place and the directory fsynced, so
neither a crash mid-write nor a power loss after it leaves a half-written
file under the real name or loses the rename.  Members are checked
against ``meta.crc`` when read, so silent corruption surfaces as a typed
:class:`~repro.resilience.errors.CheckpointCorrupt` instead of NaNs ten
steps later; v1 files (no ``meta.crc``) load unverified.

An :class:`Archive` reads one member at a time: a fresh model built from
it (``serve.InferenceEngine.from_checkpoint``) takes each tensor where it
would have drawn it, so a restore holds the model and one member.  A
live restore (:func:`load_checkpoint`) checks every member before
anything is written.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.core.param import Prefixed
from repro.resilience.errors import CheckpointCorrupt
from repro.train.spec import RunSpec
from repro.util import retry

FORMAT_VERSION = 2

_MODEL = "model."
_OPT = "opt."
#: What a damaged archive raises while it is opened or a member read.
_UNREADABLE = (OSError, ValueError, EOFError, zipfile.BadZipFile, KeyError)


def _raw(arr: np.ndarray) -> np.ndarray:
    """``arr``'s bytes in C order as a flat ``uint8`` view of its own
    buffer (of a C-ordered copy if it is not C-contiguous)."""
    return np.require(arr, requirements="C").reshape(-1).view(np.uint8)


def _crc(arr) -> int:
    """CRC32 of ``arr``'s bytes in C order: ``zlib.crc32(arr.tobytes())``
    without the copy."""
    return zlib.crc32(_raw(np.asarray(arr)))


@dataclass
class Checkpoint:
    """An in-memory checkpoint: states + step + (optional) spec."""

    model_state: Mapping[str, np.ndarray]
    opt_state: Mapping[str, np.ndarray]
    step: int
    spec: RunSpec | None

    def require_spec(self) -> RunSpec:
        if self.spec is None:
            raise ValueError(
                "checkpoint carries no RunSpec; it can be loaded into an "
                "existing model but not rebuilt from the file alone"
            )
        return self.spec


class Archive(Checkpoint):
    """An open checkpoint file whose states read a member at a time.

    ``archive[key]`` (a full member name) reads the member and, with
    ``verify``, checks it against ``meta.crc`` before returning it; a
    member ``meta.crc`` does not list, or one it lists that the file
    lacks, fails the open.  Use it in a ``with`` block."""

    def __init__(self, path: str | Path, verify: bool = True):
        self.path = str(path)
        try:
            self._npz = np.load(path, allow_pickle=False)
        except _UNREADABLE as exc:
            raise CheckpointCorrupt(self.path, f"unreadable archive ({exc})") from exc
        self._names, self._crcs = set(self._npz.files), None
        if verify and "meta.crc" in self:
            self._crcs = json.loads(str(self["meta.crc"]))
            bad = sorted(self._names.symmetric_difference(self._crcs) - {"meta.crc"})
            if bad:
                raise CheckpointCorrupt(self.path, f"members missing or unlisted: {bad}", bad)
        step = int(self["meta.step"]) if "meta.step" in self else 0
        spec = str(self["meta.spec"]) if "meta.spec" in self else ""
        spec = RunSpec.from_json(spec) if spec else None
        super().__init__(Prefixed(self, _MODEL), Prefixed(self, _OPT), step, spec)

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self:
            raise KeyError(f"checkpoint {self.path} has no member {key!r}")
        try:
            arr = self._npz[key]
        except _UNREADABLE as exc:
            raise CheckpointCorrupt(self.path, f"unreadable member {key!r} ({exc})", [key]) from exc
        if self._crcs is not None and key != "meta.crc" and _crc(arr) != self._crcs[key]:
            raise CheckpointCorrupt(self.path, f"CRC mismatch on {[key]}", [key])
        return arr

    def __contains__(self, key) -> bool:
        return key in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._npz.files)

    def __enter__(self) -> "Archive":
        return self

    def __exit__(self, *exc) -> None:
        self._npz.close()


def open_checkpoint(source: str | Path | Archive):
    """``source`` open, for a ``with`` block: a path is opened (and
    closed after), an open :class:`Archive` is used as it is."""
    return contextlib.nullcontext(source) if isinstance(source, Archive) else Archive(source)


def _write_member(zf: zipfile.ZipFile, key: str, value) -> int:
    """``value`` (an array, or a call returning one) as member ``key``:
    the bytes ``np.savez`` writes, straight from its buffer.  Returns
    its CRC32."""
    arr = np.require(value() if callable(value) else value, requirements="C")
    # A ZipInfo's timestamp is the format's epoch, not the clock's: a
    # replayed save writes the same bytes.
    with zf.open(zipfile.ZipInfo(key + ".npy"), "w", force_zip64=True) as fid:
        np.lib.format.write_array_header_1_0(fid, np.lib.format.header_data_from_array_1_0(arr))
        fid.write(_raw(arr))
    return _crc(arr)


def save_state(
    path: str | Path,
    model_state: Mapping,
    opt_state: Mapping | None = None,
    step: int = 0,
    spec: RunSpec | None = None,
) -> None:
    """Write state dicts as one durable ``.npz``, a member at a time
    (transient I/O errors are retried with seeded backoff).  An entry
    may be a call returning the array, made when its turn comes (a
    tiered table's gather), so such entries never coexist."""
    members = {_MODEL + k: v for k, v in model_state.items()}
    members.update((_OPT + k, v) for k, v in (opt_state or {}).items())
    members["meta.step"] = np.int64(step)
    members["meta.spec"] = np.str_(spec.to_json() if spec is not None else "")
    members["meta.version"] = np.int64(FORMAT_VERSION)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Same-directory temp name so os.replace stays a same-filesystem
    # atomic rename; pid-suffixed so concurrent writers never collide.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")

    def _write() -> None:
        try:
            with open(tmp, "wb") as fh:
                with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
                    crcs = {key: _write_member(zf, key, value) for key, value in members.items()}
                    _write_member(zf, "meta.crc", np.str_(json.dumps(dict(sorted(crcs.items())))))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            # The rename lives in the directory: durable once it is synced.
            fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        finally:
            tmp.unlink(missing_ok=True)

    retry(_write, attempts=3, backoff=0.05, jitter_seed=str(path))


def load_checkpoint(path: str | Path, verify: bool = True) -> Checkpoint:
    """Read a ``.npz`` checkpoint back into a :class:`Checkpoint`, every
    member checked against ``meta.crc`` (with ``verify``, the default)
    before this returns: what a restore into live objects needs."""
    with Archive(path, verify) as ar:
        return Checkpoint(dict(ar.model_state), dict(ar.opt_state), ar.step, ar.spec)
