"""Shared fixtures: tiny DLRM configs and deterministic RNG streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck

from repro.core.config import DLRMConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


class _NoFallback:
    """Stands in for a NumPy-tier module inside ``kernels.dispatch``."""

    def __getattr__(self, name):
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
    interaction's too, wherever :func:`repro.kernels.native.blas_agrees`).
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
    modules = ["rows", "synth"]
    if native.blas_agrees():  # else this host's BLAS computes other bits: NumPy by design
        modules.append("interaction")
    for numpy_module in modules:
        mp.setattr(dispatch, numpy_module, _NoFallback())


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


def racefree_update_oracle(table, grad, lr: float, threads: int) -> np.ndarray:
    """Alg. 4 as written on ``table`` -- ``threads`` full-array mask
    scans, each thread's share through :func:`scatter_add_rows_oracle`;
    returns the per-thread counts."""
    from functools import partial

    from repro.kernels import reference

    return reference.partitioned_scatter_add(
        partial(scatter_add_rows_oracle, table),
        table.rows,
        grad.indices,
        -np.float32(lr) * grad.values,
        threads,
    )


def assert_same_bits(got: dict, want: dict, what: str = "state") -> None:
    """Two state dicts hold the same keys, dtypes, shapes and bytes
    (not merely equal values: -0.0 and NaN payloads count)."""
    assert set(got) == set(want), what
    for key, value in want.items():
        a, b = np.atleast_1d(got[key]), np.atleast_1d(value)
        assert a.dtype == b.dtype and a.shape == b.shape, f"{what}: {key}"
        np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8), err_msg=f"{what}: {key}")
