"""Compile ``kernels.c`` on first use, cache the library per user, load it.

Nothing runs at import time: :func:`library` compiles (cold cache) or
``dlopen``\\ s (warm cache: no subprocess) on its first call and keeps
the answer for the life of the process.  Any failure -- no compiler, a
failed compile, no writable directory, a library that will not load or
lacks a symbol -- selects the NumPy tier with one warning naming the
reason.

The only environment inputs are the deployment ones: ``CC`` (the
compiler command; default ``cc``, then ``gcc``) and ``XDG_CACHE_HOME``.
The library lives in ``$XDG_CACHE_HOME/repro-kernels`` or
``~/.cache/repro-kernels``, under a name keyed by everything that can
change its code: the source, the flags, ``CC``, the machine and the CPU
flags (``-march=native`` output must not be loaded on another CPU).
When neither directory is writable it is built in a private directory
under ``tempfile.gettempdir()`` that goes away once the library is
mapped.  A compile writes to a temporary name, seals the file with a
digest of its own bytes and ``os.replace``\\ s it in, so processes racing
on an empty cache all end with a valid file, and a file that was cut
short is rebuilt instead of mapped (``dlopen`` would fault on it).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
import threading
import warnings
from importlib import resources

SOURCE = "kernels.c"
#: What ``repro_abi()`` of a matching library answers.
ABI = 6
#: Exactly these: -ffast-math, -Ofast and -funsafe-math-optimizations
#: reassociate, and linking them into a shared object flips FTZ/DAZ for
#: the whole process, NumPy included.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared", "-Wall", "-Wextra")

_P, _I = ctypes.c_void_p, ctypes.c_int64
#: name -> (argument types, result type) of every exported function.
SIGNATURES = {
    "repro_abi": ((), _I),
    "repro_ids_in_range": ((_P, _I, _I), ctypes.c_int),
    "repro_scatter_add_f32": ((_P, _I, _P, _P, _I, _P, ctypes.c_float, _I, _I), None),
    "repro_pool_f32": ((_P, _I, _P, _P, _I, _I, _P), None),
    "repro_pool_bf16": ((_P, _I, _P, _P, _I, _I, _P), None),
    "repro_split_scatter_add": (
        (_P, _P, _I, ctypes.c_uint16, _P, _P, _P, _I, _I, _P, _P, _P, _P), None
    ),
    "repro_sgd_step": ((_P, _P, _I, ctypes.c_float), None),
    "repro_split_sgd_step": ((_P, _P, _P, _I, ctypes.c_float, ctypes.c_uint16), None),
    "repro_zipf_ids": ((_P, _I, _I, ctypes.c_int, _P), None),
    "repro_teacher_bags": ((_P, _P, _I, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_double, _P), None),
    "repro_dot_fwd": ((_P, _I, _I, _I, _P, _P, _P, _I), _I),
    "repro_dot_bwd": ((_P, _P, _I, _I, _I, _P, _P, _P), None),
    "repro_uniform_fill": ((_P, _I, ctypes.c_double, ctypes.c_double, _P), _I),
}


class Unavailable(Exception):
    """Why this process runs the NumPy tier."""


def source_bytes() -> bytes:
    return resources.files(__package__).joinpath(SOURCE).read_bytes()


def compiler() -> str:
    """The ``CC`` command, else the first of ``cc`` / ``gcc`` on PATH."""
    cc = os.environ.get("CC", "").strip()
    if cc:
        return cc
    for name in ("cc", "gcc"):
        if shutil.which(name):
            return name
    raise Unavailable("no C compiler: CC is unset and neither cc nor gcc is on PATH")


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line for line in fh if line.startswith("flags")), "")
    except OSError:
        return ""


def library_name(source: bytes, cc: str) -> str:
    key = hashlib.sha256()
    for part in (source, " ".join(FLAGS), cc, platform.machine(), _cpu_flags()):
        key.update(part.encode() if isinstance(part, str) else part)
        key.update(b"\0")
    return f"repro-kernels-{key.hexdigest()[:16]}.so"


def cache_dirs() -> list[str]:
    bases = [os.environ.get("XDG_CACHE_HOME"), os.path.join(os.path.expanduser("~"), ".cache")]
    return [os.path.join(base, "repro-kernels") for base in bases if base]


#: Trailer of a finished library: this tag, then the SHA-256 of every
#: byte before it (a loader ignores what follows an ELF image).
_SEAL = b"\nrepro-kernels sealed "


def _intact(path: str) -> bool:
    with open(path, "rb") as fh:
        image, tag, digest = fh.read().rpartition(_SEAL)
    return bool(tag) and hashlib.sha256(image).hexdigest().encode() == digest


def _compile(cc: str, source: bytes, path: str) -> None:
    """``source`` -> a sealed shared library at ``path``, atomically.  An
    ``OSError`` means the directory cannot be written (try another);
    :class:`Unavailable` means the compiler cannot do it anywhere."""
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        cmd = [*shlex.split(cc), *FLAGS, "-x", "c", "-", "-o", tmp]
        try:
            proc = subprocess.run(cmd, input=source, capture_output=True)
        except OSError as exc:
            raise Unavailable(f"cannot run {cc!r}: {exc}") from None
        if proc.returncode:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise Unavailable(f"{cc!r} exited {proc.returncode}" + "".join(f": {t}" for t in tail))
        with open(tmp, "rb+") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
            fh.write(_SEAL + digest.encode())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: str) -> ctypes.CDLL:
    """``dlopen`` and type every export; ``OSError`` when the file is
    not a library of this ABI (foreign, unmappable, a symbol missing)."""
    lib = ctypes.CDLL(path)
    try:
        for name, (argtypes, restype) in SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
    except AttributeError as exc:
        raise OSError(f"{path}: {exc}") from None
    if lib.repro_abi() != ABI:
        raise OSError(f"{path}: ABI {lib.repro_abi()}, this package speaks {ABI}")
    return lib


def _build_and_load() -> tuple[ctypes.CDLL, str]:
    source, cc = source_bytes(), compiler()
    name = library_name(source, cc)
    for base in cache_dirs():
        path = os.path.join(base, name)
        try:
            if _intact(path):
                return _open(path), path
        except OSError:
            pass  # absent, or not a library of this ABI: build over it
        try:
            os.makedirs(base, exist_ok=True)
            _compile(cc, source, path)
        except OSError:
            continue
        return _open(path), path
    with tempfile.TemporaryDirectory(prefix="repro-kernels-") as tmp:
        path = os.path.join(tmp, name)
        _compile(cc, source, path)
        return _open(path), path  # stays mapped after the file is gone


_lock = threading.Lock()
#: ``None`` until the first call of :func:`load`; then (library or
#: ``None``, its path or the reason there is none).
_loaded: tuple[ctypes.CDLL | None, str] | None = None


def load() -> tuple[ctypes.CDLL | None, str]:
    """(the library, its path), or (``None``, why not): decided once."""
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                try:
                    _loaded = _build_and_load()
                except (Unavailable, OSError) as exc:
                    _loaded = (None, str(exc))
                    warnings.warn(
                        f"repro.kernels: native tier unavailable ({exc}); running the NumPy tier",
                        RuntimeWarning,
                        stacklevel=2,
                    )
    return _loaded


def library() -> ctypes.CDLL | None:
    return load()[0]
