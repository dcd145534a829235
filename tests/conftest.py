"""Shared fixtures: tiny DLRM configs and deterministic RNG streams."""

from __future__ import annotations

import ctypes
import hashlib
import platform
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck

from repro.core.config import DLRMConfig

#: What the reason of every skipped recorded-bit comparison starts with.
RECORDED_ELSEWHERE = "recorded bits"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _blas_core() -> str | None:
    """The kernel set (``SkylakeX``, ...) OpenBLAS chose for this CPU, read
    from the library NumPy loaded; None when no OpenBLAS will say."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def host_fingerprint() -> dict[str, str]:
    """What decides the bits of an sgemm: NumPy, its BLAS build and the
    kernel set that BLAS runs on this CPU -- or, when the BLAS cannot
    say, the CPU's model name without its clock ("@ 2.10GHz" comes and
    goes between hosts of one model)."""
    try:
        build = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # NumPy < 1.25 prints, returns nothing
        build = {}
    blas = build.get("blas", {})
    host = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }
    core = _blas_core()
    if core:
        return {**host, "core": core}
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1] for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {**host, "cpu": re.sub(r"@.*", "", cpu).strip()}


def skip_unless_recorded_here(host: dict) -> None:
    """Skip the rest of a recorded-bit comparison unless ``host`` (the
    recording's) is this host: GEMMs round differently elsewhere.  The
    run's summary names every such skip."""
    here = host_fingerprint()
    if host != here:
        pytest.skip(f"{RECORDED_ELSEWHERE} on {host}; this host is {here}")


def pytest_terminal_summary(terminalreporter) -> None:
    skipped = [
        report
        for report in terminalreporter.stats.get("skipped", [])
        if RECORDED_ELSEWHERE in str(report.longrepr)
    ]
    if skipped:
        terminalreporter.section("recorded-bit comparisons skipped")
        for report in skipped:
            terminalreporter.line(f"{report.nodeid}: {report.longrepr[2]}")


class _NoFallback:
    """Stands in for a NumPy-tier module inside ``kernels.dispatch``,
    passing on only the functions this host runs there by design."""

    def __init__(self, module, by_design=()):
        self._module, self._by_design = module, by_design

    def __getattr__(self, name):
        if name in self._by_design:
            return getattr(self._module, name)

        def refuse(*args, **kwargs):
            raise AssertionError(f"the native tier declined: dispatch fell back to {name}")

        return refuse


def force_kernel_tier(mp: pytest.MonkeyPatch, tier: str) -> None:
    """Make ``repro.kernels.dispatch`` run ``tier`` and nothing else.

    ``"numpy"``: this process has no library, and ``CC`` names a
    compiler that cannot compile, so a spawned worker takes the real
    fallback.  ``"native"``: the library must load (else the test is
    skipped with the loader's reason) and a fall-back to the NumPy tier
    is an error, so a pass means the C kernel produced the bits (the dot
    interaction's too, wherever :func:`repro.kernels.native.blas_agrees`,
    and the tables' draw's, wherever :func:`~repro.kernels.native.pcg64_agrees`).
    """
    from repro.kernels import dispatch, native
    from repro.kernels.native import build

    if tier == "numpy":
        mp.setattr(build, "_loaded", (None, "this test runs the NumPy tier"))
        mp.setenv("CC", "/bin/false")
        return
    lib, why = build.load()
    if lib is None:
        pytest.skip(f"native tier unavailable: {why}")
    # Else this host's BLAS, or its build of the draw, computes other bits: NumPy by design.
    by_design = {"rows": () if native.pcg64_agrees() else ("uniform_fill",), "synth": ()}
    if native.blas_agrees():
        by_design["interaction"] = ()
    for numpy_module, allowed in by_design.items():
        mp.setattr(dispatch, numpy_module, _NoFallback(getattr(dispatch, numpy_module), allowed))


#: ``@settings(**TIERED)`` for a Hypothesis test that uses
#: :func:`kernel_tier`: the tier is set once per test and no example
#: changes it, so there is nothing to reset between examples.
TIERED = {"suppress_health_check": [HealthCheck.function_scoped_fixture]}


@pytest.fixture(params=["numpy", "native"])
def kernel_tier(request, monkeypatch):
    """Run the test once per kernel tier, named explicitly."""
    force_kernel_tier(monkeypatch, request.param)
    return request.param


def counting_cc(tmp_path):
    """``(CC value, calls file)``: a compiler wrapper that appends one
    line to the file per invocation, then runs ``cc``."""
    calls, wrapper = tmp_path / "cc-calls", tmp_path / "counting-cc"
    calls.write_text("")
    wrapper.write_text(f'#!/bin/sh\necho x >> "{calls}"\nexec cc "$@"\n')
    wrapper.chmod(0o755)
    return str(wrapper), calls


@pytest.fixture
def numpy_tier(monkeypatch):
    """For tests of the NumPy tier's own mechanics (buffers, blocks)."""
    force_kernel_tier(monkeypatch, "numpy")


def tiny_config(
    num_tables: int = 4,
    rows: int = 50,
    dim: int = 8,
    lookups: int = 3,
    minibatch: int = 16,
    dense: int = 10,
    interaction: str = "dot",
) -> DLRMConfig:
    """A structurally-complete DLRM small enough for exact testing."""
    return DLRMConfig(
        name="tiny",
        minibatch=minibatch,
        global_minibatch=minibatch * 4,
        local_minibatch=minibatch,
        lookups_per_table=lookups,
        embedding_dim=dim,
        table_rows=(rows,) * num_tables,
        dense_features=dense,
        bottom_mlp=(12, dim),
        top_mlp=(16, 8, 1),
        interaction=interaction,
    )


@pytest.fixture
def tiny_cfg() -> DLRMConfig:
    return tiny_config()


def random_batch(cfg: DLRMConfig, n: int, seed: int = 0, ragged: bool = False):
    """A deterministic random batch; ``ragged=True`` varies bag lengths."""
    from repro.core.batch import Batch

    g = np.random.default_rng(seed)
    dense = g.standard_normal((n, cfg.dense_features)).astype(np.float32)
    indices, offsets = [], []
    for t in range(cfg.num_tables):
        if ragged:
            lengths = g.integers(0, cfg.lookups_per_table + 2, size=n)
        else:
            lengths = np.full(n, cfg.lookups_per_table)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=off[1:])
        idx = g.integers(0, cfg.table_rows[t], size=int(off[-1]), dtype=np.int64)
        indices.append(idx)
        offsets.append(off)
    labels = g.integers(0, 2, size=n).astype(np.float32)
    return Batch(dense=dense, indices=indices, offsets=offsets, labels=labels)


def pending_grads(model, batch, normalizer: float | None = None):
    """Loss forward and dense backward of ``batch``, nothing stepped:
    every MLP gradient is left pending.  Returns the loss and the
    bag-level gradients of the embedding outputs, one per table."""
    loss = model.loss(batch, normalizer=normalizer)
    return loss, model.dense_backward(model.loss_fn.backward(), batch)


def scatter_add_rows_oracle(table, indices, deltas) -> None:
    """What ``table.scatter_add_rows(indices, deltas)`` promises, spelled
    with :mod:`repro.kernels.reference`: literal ``np.add.at`` on an
    FP32 table's rows (a tiered table's ids translated first); for
    Split-BF16 the ``np.unique`` + ``np.add.at`` aggregate, then the
    table's own update of the reconstructed rows."""
    from repro.kernels import reference, rows

    indices = np.asarray(indices, dtype=np.int64)
    if table.storage == "split_bf16":
        rows.split_add_aggregated(
            table.hi, table.lo, table.lo_bits, *reference.aggregate_duplicates(indices, deltas)
        )
    elif hasattr(table, "store"):
        reference.scatter_add(table.store.weight, table._checked_rows(indices), deltas)
    else:
        reference.scatter_add(table.weight, indices, deltas)


@contextmanager
def pooled(workers: int):
    """Run the block under a process-wide pool of ``workers`` threads,
    then put back a pool of the previous width."""
    from repro.exec.pool import get_pool, set_pool_workers

    before = get_pool().workers
    pool = set_pool_workers(workers)
    try:
        yield pool
    finally:
        set_pool_workers(before)


def split_fp32(x) -> tuple[np.ndarray, np.ndarray]:
    """The (hi, lo) uint16 halves of FP32 ``x``, split by *truncation*: the
    paper's Split-BF16 weight (a valid BF16 number) and its optimizer
    state, ``hi || lo`` the FP32 master bit for bit."""
    bits = np.asarray(x, dtype=np.float32).view(np.uint32)
    return (bits >> np.uint32(16)).astype(np.uint16), (bits & np.uint32(0xFFFF)).astype(np.uint16)


def truncate_lo_bits(lo, keep_bits: int) -> np.ndarray:
    """A copy of the low halves ``lo`` keeping only their ``keep_bits``
    MSBs: 8 is the paper's FP24 (1-8-15), 0 pure BF16 weights."""
    from repro.kernels.rows import lo_mask

    return np.asarray(lo, dtype=np.uint16) & lo_mask(keep_bits)


def bag_of(weight, cls=None, **kwargs):
    """A ``cls`` table (:class:`EmbeddingBag` by default) holding the FP32
    ``weight`` bit-exactly, through :meth:`load_state_dict`; a
    Split-BF16 one keeps ``lo_bits`` of its low halves."""
    from repro.core.embedding import EmbeddingBag
    from repro.kernels.workspace import aligned_empty

    weight = np.asarray(weight, dtype=np.float32)
    bag = (cls or EmbeddingBag)(*weight.shape, alloc=aligned_empty, **kwargs)
    if bag.storage == "fp32":
        bag.load_state_dict({"weight": weight})
    else:
        hi, lo = split_fp32(weight)
        bag.load_state_dict({"hi": hi, "lo": truncate_lo_bits(lo, bag.lo_bits)})
    return bag


def cold_path(table) -> str:
    """Path of the file a tiered table's rows are mapped from."""
    return str(table._file.filename)


def tiered_bag(weight, hot_rows=None, cold_dir: str | None = None):
    """A tiered table holding ``weight`` (id order) with ``hot_rows``
    pinned, built the one way tiered tables are: :func:`apply_tiering`
    on a one-table model, whose slab moves onto a file under ``cold_dir``."""
    from repro.core.model import DLRM
    from repro.tiering.planner import TablePlan
    from repro.tiering.store import apply_tiering

    rows, dim = weight.shape
    model = DLRM(tiny_config(num_tables=1, rows=rows, dim=dim), seed=0)
    model.tables[0].load_state_dict({"weight": weight})
    hot = np.ravel([] if hot_rows is None else hot_rows)
    apply_tiering(model, {0: TablePlan(0, "hot_cold", hot, 0.0)}, cold_dir=cold_dir)
    return model.tables[0]


def row_range_for_thread(rows: int, tid: int, threads: int) -> tuple[int, int]:
    """Alg. 4 lines 2-3: the row range owned by thread ``tid``."""
    if not 0 <= tid < threads:
        raise ValueError(f"tid must be in [0, {threads}), got {tid}")
    return (rows * tid) // threads, (rows * (tid + 1)) // threads


def bucket_by_row_ranges(indices: np.ndarray, rows: int, threads: int) -> np.ndarray:
    """Per-thread update counts under Alg. 4's static row partition.

    Thread ``t`` owns rows ``[rows*t // threads, rows*(t+1) // threads)``,
    so row ``i`` belongs to the last ``t`` with ``rows*t < (i+1)*threads``:
    ``((i + 1) * threads - 1) // rows``.  That closed form plus one
    ``bincount`` gives the ``(threads,)`` int64 count vector the
    ``threads`` full-array mask scans of :func:`racefree_update_oracle`
    produce.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if rows * threads > np.iinfo(np.int64).max:
        raise ValueError("rows * threads must fit in int64")
    indices = np.asarray(indices, dtype=np.int64)
    counts = np.bincount(((indices + 1) * threads - 1) // rows, minlength=threads)
    if counts.shape[0] != threads:
        raise IndexError("indices out of range")
    return counts.astype(np.int64, copy=False)


def racefree_update_oracle(table, grad, lr: float, threads: int) -> np.ndarray:
    """Alg. 4 as written on ``table``: every thread scans all the ids and
    hands those in its own row range to :func:`scatter_add_rows_oracle`
    (``threads`` full-array mask scans); returns the per-thread counts."""
    indices, deltas = grad.indices, -np.float32(lr) * grad.values
    counts = np.zeros(threads, dtype=np.int64)
    for tid in range(threads):
        lo, hi = row_range_for_thread(table.rows, tid, threads)
        mask = (indices >= lo) & (indices < hi)
        counts[tid] = int(mask.sum())
        if counts[tid]:
            scatter_add_rows_oracle(table, indices[mask], deltas[mask])
    return counts


def predict_proba(model, batch) -> np.ndarray:
    """Click probabilities from a model's training forward: the sigmoid
    of its logits, shape (N,)."""
    from repro.core.mlp import sigmoid

    return sigmoid(model.forward(batch)).reshape(-1)


def capacity_bytes(model) -> int:
    """Model + optimizer-visible bytes a model (or one table) holds in
    RAM: dense parameters, and each table's storage arrays -- for a
    tiered table only its hot rows (the OS pages the tail)."""
    tables = getattr(model, "tables", None)
    if tables is not None:
        dense = sum(p.nbytes for p in model.parameters())
        return dense + sum(capacity_bytes(t) for t in tables.values())
    if hasattr(model, "_hot"):
        return model._hot * model.dim * 4
    return sum(getattr(model, name).nbytes for name in model._arrays)


def state_bytes(opt, params, tables=()) -> int:
    """Optimizer state bytes held for ``params`` -- their slots of the
    dense state flat -- plus one float per row of each of ``tables`` (a
    row-wise optimizer's sparse state)."""
    dense = 0 if opt.state_key is None else sum(opt.state_view(p).nbytes for p in params)
    return dense + sum(t.rows * 4 for t in tables)


def opt_state(trainer) -> dict:
    """A trainer's live optimizer state, consolidated."""
    return trainer._executor.state_dicts()[1]


def state_digest(state: dict) -> str:
    """sha256 over a state dict's keys, dtypes, shapes and bytes, in key order."""
    h = hashlib.sha256()
    for key in sorted(state):
        a = np.ascontiguousarray(state[key])
        for part in (key.encode(), str(a.dtype).encode(), str(a.shape).encode(), a.tobytes()):
            h.update(part)
    return h.hexdigest()


def assert_same_bits(got: dict, want: dict, what: str = "state") -> None:
    """Two state dicts hold the same keys, dtypes, shapes and bytes
    (not merely equal values: -0.0 and NaN payloads count)."""
    assert set(got) == set(want), what
    for key, value in want.items():
        a, b = np.atleast_1d(got[key]), np.atleast_1d(value)
        assert a.dtype == b.dtype and a.shape == b.shape, f"{what}: {key}"
        np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8), err_msg=f"{what}: {key}")
