"""Drivers for the single-socket experiments: Tables I/II, Figs. 5-8."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bench import paper
from repro.core.config import table_one, table_two
from repro.hw.costmodel import CostModel, GemmShape
from repro.hw.spec import SKX_8180
from repro.parallel.overlap import OverlapReport, overlap_mlp_training
from repro.parallel.timing import IterationResult, single_socket_iteration

#: The (update strategy, GEMM impl) pairs of Fig. 7's four bars.
FIG7_VARIANTS = [
    ("reference", "pytorch_mkl"),
    ("atomic", "this_work"),
    ("rtm", "this_work"),
    ("racefree", "this_work"),
]


def run_table1() -> list[dict[str, object]]:
    """Paper Table I: the three DLRM model specifications."""
    return table_one()


def run_table2() -> list[dict[str, object]]:
    """Paper Table II: distributed-run characteristics, with the paper's
    reported values alongside the Eq. 1/2 computations."""
    rows = []
    for row in table_two():
        ref = paper.TABLE2[row["config"]]
        row = dict(row)
        row["paper_allreduce_mb"] = ref["allreduce_mb"]
        row["paper_alltoall_mb"] = ref["alltoall_mb"]
        row["paper_min_sockets"] = ref["min_sockets"]
        rows.append(row)
    return rows


def run_fig5_mlp_kernels(
    minibatch: int = 1024,
    feature_dims: tuple[int, ...] = (1024, 2048, 4096),
) -> list[dict[str, object]]:
    """Fig. 5: single-socket MLP training-kernel performance.

    For every (C=K, pass, implementation) the driver reports the modelled
    GFLOPS and fraction-of-peak on the SKX 8180 socket; the paper's
    averages (72% / 75% / 61%) ride along for comparison.
    """
    cm = CostModel(SKX_8180)
    rows = []
    for ck in feature_dims:
        for pass_, shape in (
            ("fwd", GemmShape(minibatch, ck, ck)),
            ("bwd_d", GemmShape(minibatch, ck, ck)),
            ("bwd_w", GemmShape(ck, ck, minibatch)),
        ):
            for impl in ("this_work", "fb_mlp", "pytorch_mkl"):
                t = cm.gemm_time(shape, impl=impl, pass_=pass_)
                gflops = shape.flops / t / 1e9
                rows.append(
                    {
                        "C=K": ck,
                        "pass": pass_,
                        "impl": impl,
                        "model_gflops": gflops,
                        "model_frac_peak": gflops * 1e9 / SKX_8180.peak_flops,
                        "paper_avg_frac_peak": paper.FIG5_AVG_EFFICIENCY[impl],
                    }
                )
    return rows


def fig5_average_efficiency(rows: list[dict[str, object]]) -> dict[str, float]:
    """Average fraction-of-peak per implementation over all Fig. 5 bars."""
    out: dict[str, list[float]] = {}
    for r in rows:
        out.setdefault(str(r["impl"]), []).append(float(r["model_frac_peak"]))
    return {impl: float(np.mean(v)) for impl, v in out.items()}


def run_fig6_overlap() -> tuple[OverlapReport, list[dict[str, object]]]:
    """Fig. 6 / Fig. 2: overlapping the SGD collectives with the backward
    GEMMs (8 CLX nodes, 4 endpoints, N=1008, C=K=1024)."""
    report = overlap_mlp_training()
    rows = [
        {
            "pass": "BWD (bwd-by-data + allgather)",
            "model_gemm_ms": report.bwd_gemm_time * 1e3,
            "model_comm_ms": report.bwd_comm_time * 1e3,
            "paper_gemm_ms": paper.FIG6_MS["bwd_d_gemm"],
            "paper_comm_ms": paper.FIG6_MS["bwd_comm"],
            "hidden": report.bwd_comm_time <= report.bwd_gemm_time,
        },
        {
            "pass": "UPD (bwd-by-weights + reduce-scatter)",
            "model_gemm_ms": report.upd_gemm_time * 1e3,
            "model_comm_ms": report.upd_comm_time * 1e3,
            "paper_gemm_ms": paper.FIG6_MS["bwd_w_gemm"],
            "paper_comm_ms": paper.FIG6_MS["upd_comm"],
            "hidden": report.upd_comm_time <= report.upd_gemm_time,
        },
    ]
    return report, rows


def _single_socket_sweep(
    columns: Callable[[str, str, IterationResult], dict[str, object]],
) -> list[dict[str, object]]:
    """The sweep Figs. 7/8 share: 4 variants x 2 configs, one modelled
    iteration each; ``columns(cfg, update, res)`` projects the figure's
    own columns.  (The large config does not fit in one socket --
    Sect. VI-C -- so, as in the paper, it is absent here.)"""
    rows = []
    for cfg in ("small", "mlperf"):
        for update, impl in FIG7_VARIANTS:
            res = single_socket_iteration(cfg, update=update, gemm_impl=impl)
            rows.append({"config": cfg, "strategy": update, **columns(cfg, update, res)})
    return rows


def run_fig7_single_socket() -> list[dict[str, object]]:
    """Fig. 7: single-socket DLRM ms/iteration, 4 variants x 2 configs."""
    return _single_socket_sweep(
        lambda cfg, update, res: {
            "model_ms": res.iteration_time * 1e3,
            "paper_ms": paper.FIG7_MS[(cfg, update)],
        }
    )


def fig7_speedups(rows: list[dict[str, object]]) -> dict[str, float]:
    """Reference / race-free ratio per config (the 110x / 8x headline)."""
    by = {(r["config"], r["strategy"]): float(r["model_ms"]) for r in rows}
    return {
        cfg: by[(cfg, "reference")] / by[(cfg, "racefree")]
        for cfg in ("small", "mlperf")
    }


def _breakdown(res: IterationResult) -> dict[str, float]:
    m = res.merged()
    emb = m.total("compute.embedding") + m.total("update.sparse")
    mlp = m.total("compute.mlp") + m.total("update.dense")
    rest = max(0.0, res.iteration_time - emb - mlp)
    return {"embeddings": emb, "mlp": mlp, "rest": rest}


def run_fig8_breakdown() -> list[dict[str, object]]:
    """Fig. 8: time split across Embeddings / MLP / Rest per variant."""

    def columns(cfg: str, update: str, res: IterationResult) -> dict[str, object]:
        b = _breakdown(res)
        total = res.iteration_time
        return {
            "total_ms": total * 1e3,
            "embeddings_ms": b["embeddings"] * 1e3,
            "mlp_ms": b["mlp"] * 1e3,
            "rest_ms": b["rest"] * 1e3,
            "embeddings_pct": 100 * b["embeddings"] / total,
            "paper_embeddings_ms": paper.FIG8_EMBEDDING_MS[(cfg, update)],
        }

    return _single_socket_sweep(columns)
