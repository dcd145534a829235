#!/usr/bin/env python
"""Hot-path microbenchmarks: the naive formulations vs the dispatched kernels.

Each bench times the naive formulation of :mod:`repro.kernels.reference`
(``np.add.at`` scatters, per-thread mask scans, the
``np.repeat``-materialised sparse backward) against what
:mod:`repro.kernels.dispatch` or the public table method runs -- the C
loops of the native tier wherever a compiler is present, else the
reference spellings themselves -- verifies the two produce
*bit-identical* results on the benchmarked shape, and records the
speedup.

Results are written to ``BENCH_hotpath.json`` at the repo root so future
PRs inherit a perf trajectory.

Run:  PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick] [--reps N]
"""

from __future__ import annotations

import argparse
import functools
import json
import time
from pathlib import Path

import numpy as np

from repro.core.embedding import EmbeddingBag, SparseGrad, SplitEmbeddingBag
from repro.core.update import FusedBackwardUpdate, RaceFreeUpdate
from repro.data.synthetic import bounded_zipf
from repro.kernels import dispatch, reference
from repro.kernels.lookup import check_lookup
from repro.kernels.rows import split_add_aggregated
from repro.kernels.workspace import Workspace, aligned_empty

REPO_ROOT = Path(__file__).resolve().parent.parent
THREADS = 28  # the paper's per-socket core count (CLX-AP socket)


def best_of(fn, reps: int, setup=None) -> float:
    """Best wall-clock of ``reps`` runs (setup excluded from timing)."""
    best = float("inf")
    for _ in range(reps + 1):  # one extra run to warm caches/JIT paths
        args = setup() if setup is not None else ()
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def record(results: dict, name: str, shape: str, ref_s: float, opt_s: float, exact) -> None:
    results[name] = {
        "shape": shape,
        "reference_ms": round(ref_s * 1e3, 3),
        "optimized_ms": round(opt_s * 1e3, 3),
        "speedup": round(ref_s / opt_s, 2) if opt_s > 0 else float("inf"),
        "bit_identical": exact,
    }
    tag = "bitwise" if exact else "MISMATCH"
    print(
        f"{name:<28} ref {ref_s * 1e3:9.2f} ms   opt {opt_s * 1e3:8.2f} ms   "
        f"{ref_s / opt_s:6.1f}x   [{tag}]  {shape}"
    )


def bench_ragged_pool(results, reps, quick, rng):
    """Alg. 1 over ragged bags (some empty): the gather plus
    ``np.add.at`` pooling against the dispatched pooled forward."""
    rows, n, e, max_len = (2048, 1024, 32, 6) if quick else (16384, 8192, 64, 8)
    lengths = rng.integers(0, max_len + 1, size=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    table = rng.standard_normal((rows, e)).astype(np.float32)
    idx = rng.integers(0, rows, size=int(offsets[-1]), dtype=np.int64)
    scratch = Workspace()

    def pool_reference():
        return reference.segment_sum(table[idx], offsets)

    def pool():
        return dispatch.pool_rows(table, idx, offsets, scratch)

    exact = bool(np.array_equal(pool_reference(), pool()))
    ref_s = best_of(pool_reference, reps)
    opt_s = best_of(pool, reps)
    record(results, "ragged_pool", f"rows={rows} N={n} E={e} NS={idx.shape[0]}", ref_s, opt_s, exact)


def bench_aggregate(results, reps, quick, rng):
    """``SparseGrad.aggregated`` (``SparseAdagrad``'s entry) against
    ``np.unique`` + ``np.add.at``."""
    rows, nnz, e = (256, 16384, 32) if quick else (2048, 131072, 64)
    idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
    grad = SparseGrad(idx, rng.standard_normal((nnz, e)).astype(np.float32))
    uw, aw = reference.aggregate_duplicates(idx, grad.values)
    ug, ag = grad.aggregated()
    exact = bool(np.array_equal(uw, ug) and np.array_equal(aw, ag))
    ref_s = best_of(lambda: reference.aggregate_duplicates(idx, grad.values), reps)
    opt_s = best_of(grad.aggregated, reps)
    record(results, "sparse_grad_aggregated", f"rows={rows} NS={nnz} E={e}", ref_s, opt_s, exact)


def bench_scatter_fp32(results, reps, quick, rng):
    rows, nnz, e = (512, 16384, 32) if quick else (4096, 131072, 64)
    idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
    deltas = rng.standard_normal((nnz, e)).astype(np.float32)
    w0 = rng.standard_normal((rows, e)).astype(np.float32)
    a, b = w0.copy(), w0.copy()
    reference.scatter_add(a, idx, deltas)
    dispatch.scatter_add_exact(b, idx, deltas)
    exact = bool(np.array_equal(a, b))
    w = w0.copy()

    def reset():
        w[...] = w0
        return ()

    ref_s = best_of(lambda: reference.scatter_add(w, idx, deltas), reps, setup=reset)
    opt_s = best_of(lambda: dispatch.scatter_add_exact(w, idx, deltas), reps, setup=reset)
    record(results, "scatter_add_rows_fp32", f"rows={rows} NS={nnz} E={e}", ref_s, opt_s, exact)


def bench_scatter_split(results, reps, quick, rng):
    rows, nnz, e = (512, 8192, 32) if quick else (2048, 65536, 64)
    idx = rng.integers(0, rows, size=nnz, dtype=np.int64)
    deltas = rng.standard_normal((nnz, e)).astype(np.float32)
    w0 = rng.standard_normal((rows, e)).astype(np.float32)
    table = SplitEmbeddingBag(rows, e, weight=w0)
    hi0, lo0 = table.hi.copy(), table.lo.copy()

    def reset():
        table.hi[...] = hi0
        table.lo[...] = lo0
        return ()

    def scatter_reference():
        # np.unique + np.add.at, then the table's own update of the rows.
        split_add_aggregated(
            table.hi, table.lo, table.lo_bits, *reference.aggregate_duplicates(idx, deltas)
        )

    reset()
    scatter_reference()
    want = (table.hi.copy(), table.lo.copy())
    reset()
    table.scatter_add_rows(idx, deltas)
    exact = bool(np.array_equal(want[0], table.hi) and np.array_equal(want[1], table.lo))
    ref_s = best_of(scatter_reference, reps, setup=reset)
    opt_s = best_of(lambda: table.scatter_add_rows(idx, deltas), reps, setup=reset)
    record(results, "scatter_add_rows_split", f"rows={rows} NS={nnz} E={e}", ref_s, opt_s, exact)


def racefree_reference(table, grad, lr):
    """Alg. 4 as written: ``THREADS`` mask scans + ``np.add.at``."""
    reference.partitioned_scatter_add(
        functools.partial(reference.scatter_add, table.weight),
        table.rows,
        grad.indices,
        -np.float32(lr) * grad.values,
        THREADS,
    )


def bench_racefree(results, reps, quick, rng):
    rows, nnz, e = (512, 32768, 32) if quick else (4096, 262144, 64)
    grad = SparseGrad(
        rng.integers(0, rows, size=nnz, dtype=np.int64),
        rng.standard_normal((nnz, e)).astype(np.float32),
    )
    w0 = rng.standard_normal((rows, e)).astype(np.float32)
    table = EmbeddingBag(rows, e, weight=w0.copy())
    strat = RaceFreeUpdate(THREADS)

    def reset():
        table.weight[...] = w0
        return ()

    reset()
    racefree_reference(table, grad, 0.05)
    want = table.weight.copy()
    reset()
    strat.apply(table, grad, 0.05)
    exact = bool(np.array_equal(want, table.weight))
    ref_s = best_of(lambda: racefree_reference(table, grad, 0.05), reps, setup=reset)
    opt_s = best_of(lambda: strat.apply(table, grad, 0.05), reps, setup=reset)
    record(
        results,
        "racefree_update",
        f"rows={rows} NS={nnz} E={e} T={THREADS}",
        ref_s,
        opt_s,
        exact,
    )


def bench_fused_update(results, reps, rng, name, idx, rows, n, pooling, e):
    """One full backward+update of one table, ``n`` bags of ``pooling``.

    Reference: Alg. 2 materialises dW row-per-lookup (``np.repeat``),
    then the seed race-free update scans all indices once per thread.
    Optimized: the fused single pass (one input-order scatter straight
    from the bag-level gradients).
    """
    offsets = np.arange(0, n * pooling + 1, pooling, dtype=np.int64)
    dy = rng.standard_normal((n, e)).astype(np.float32)
    w0 = rng.standard_normal((rows, e)).astype(np.float32)
    table = EmbeddingBag(rows, e, weight=w0.copy())
    fused = FusedBackwardUpdate(THREADS)

    def reset():
        table.weight[...] = w0
        return ()

    def reference_path():
        grad = table.backward(dy, idx, offsets)
        racefree_reference(table, grad, 0.05)

    def fused_path():
        fused.apply_fused(table, dy, idx, offsets, 0.05)

    reset()
    reference_path()
    want = table.weight.copy()
    reset()
    fused_path()
    exact = bool(np.array_equal(want, table.weight))
    ref_s = best_of(reference_path, reps, setup=reset)
    opt_s = best_of(fused_path, reps, setup=reset)
    record(
        results,
        name,
        f"rows={rows} N={n} pool={pooling} E={e} T={THREADS}",
        ref_s,
        opt_s,
        exact,
    )


def bench_fused_updates(results, reps, quick, rng):
    """The headline duplicate-heavy table, then the repo benchmark's
    ``train_emb`` table (Zipf 1.05: runs from 1 to ~2 000 long) and a
    cardinality-3 table (Criteo's smallest: three runs of thousands, the
    longest runs for the fewest rows)."""
    if quick:
        rows, n, pooling, e = (128, 512, 16, 32)
    else:
        rows, n, pooling, e = (256, 2048, 64, 128)
    idx = rng.integers(0, rows, size=n * pooling, dtype=np.int64)
    bench_fused_update(
        results, reps, rng, "update_duplicate_heavy", idx, rows, n, pooling, e
    )
    n, pooling, e = (128, 32, 64) if quick else (512, 32, 64)
    for name, rows in (("fused_backward_update", 50_000), ("fused_backward_update_rows3", 3)):
        idx = bounded_zipf(rng, n * pooling, rows, alpha=1.05)
        bench_fused_update(results, reps, rng, name, idx, rows, n, pooling, e)


def bench_suite_shapes(results, reps, quick, rng):
    """The repo benchmark's ``train_emb`` step: ``tables`` x 50 000 rows
    x E64, N=512 bags of 32 Zipf-1.05 look-ups per table.

    ``pooled_forward`` / ``fused_backward_update`` (above) are one table
    of it; the ``slab_*`` cells look all tables up and update them as
    one bag in fused ids, the way a training step does.  Reference: the
    naive formulation table by table on the slab's row-range views --
    fancy-index gather + ``np.add.at`` pooling; ``np.repeat`` backward +
    per-thread mask scans + ``np.add.at`` update.
    """
    tables, rows, n, pooling, e = (2, 2_000, 64, 8, 32) if quick else (8, 50_000, 512, 32, 64)
    slab = EmbeddingBag(tables * rows, e, alloc=aligned_empty)
    views = [slab.rows_view(t * rows, (t + 1) * rows) for t in range(tables)]
    for view in views:
        view.draw(rng)
    w0 = slab.weight.copy()
    idx = [bounded_zipf(rng, n * pooling, rows, alpha=1.05) for _ in range(tables)]
    offsets = np.arange(0, n * pooling + 1, pooling, dtype=np.int64)
    fused_idx = np.concatenate([idx[t] + t * rows for t in range(tables)])
    fused_offsets = np.arange(0, tables * n * pooling + 1, pooling, dtype=np.int64)
    # Checked once, as a step checks its batch where it enters the model.
    look = check_lookup(fused_idx, fused_offsets, slab.rows)
    dy = rng.standard_normal((tables * n, e)).astype(np.float32)
    shape = f"rows={rows} N={n} pool={pooling} E={e}"

    def pool_reference(t):
        return reference.segment_sum(views[t].weight[idx[t]], offsets)

    exact = bool(np.array_equal(pool_reference(0), views[0].forward(idx[0], offsets)))
    ref_s = best_of(lambda: pool_reference(0), reps)
    opt_s = best_of(lambda: views[0].forward(idx[0], offsets), reps)
    record(results, "pooled_forward", shape, ref_s, opt_s, exact)

    def slab_pool_reference():
        return np.concatenate([pool_reference(t) for t in range(tables)])

    exact = bool(np.array_equal(slab_pool_reference(), slab.forward(look)))
    ref_s = best_of(slab_pool_reference, reps)
    opt_s = best_of(lambda: slab.forward(look), reps)
    record(results, "slab_pooled_forward", f"tables={tables} {shape}", ref_s, opt_s, exact)

    fused = FusedBackwardUpdate(THREADS)

    def reset():
        slab.weight[...] = w0
        return ()

    def update_reference():
        for t in range(tables):
            grad = views[t].backward(dy[t * n : (t + 1) * n], idx[t], offsets)
            racefree_reference(views[t], grad, 0.05)

    def update_slab():
        fused.apply_fused(slab, dy, look, None, 0.05)

    reset()
    update_reference()
    want = slab.weight.copy()
    reset()
    update_slab()
    exact = bool(np.array_equal(want, slab.weight))
    ref_s = best_of(update_reference, reps, setup=reset)
    opt_s = best_of(update_slab, reps, setup=reset)
    record(
        results, "slab_fused_backward_update", f"tables={tables} {shape} T={THREADS}",
        ref_s, opt_s, exact,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small shapes (CI smoke)")
    parser.add_argument("--reps", type=int, default=3, help="timed repetitions per variant")
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_hotpath.json", help="output JSON path"
    )
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    reps = max(1, args.reps)

    results: dict[str, dict] = {}
    print(f"hot-path microbench (quick={args.quick}, reps={reps}, numpy {np.__version__})")
    bench_ragged_pool(results, reps, args.quick, rng)
    bench_aggregate(results, reps, args.quick, rng)
    bench_scatter_fp32(results, reps, args.quick, rng)
    bench_scatter_split(results, reps, args.quick, rng)
    bench_racefree(results, reps, args.quick, rng)
    bench_fused_updates(results, reps, args.quick, rng)
    bench_suite_shapes(results, reps, args.quick, rng)

    mismatches = [k for k, v in results.items() if v["bit_identical"] is False]
    payload = {
        "bench": "hotpath",
        "quick": bool(args.quick),
        "reps": reps,
        "numpy": np.__version__,
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if mismatches:
        print(f"BIT-IDENTITY FAILURES: {mismatches}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
