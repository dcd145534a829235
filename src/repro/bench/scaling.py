"""Drivers for the multi-socket experiments: Figs. 9-15.

Each driver runs :func:`repro.parallel.timing.model_iteration` over a
sweep (rank counts, backends, exchange strategies) and renders the
paper's figure as a table.  All numbers are analytic/virtual-clock
model outputs -- deterministic for a given config, independent of the
host machine.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import get_config
from repro.parallel.timing import IterationResult, model_iteration

#: The four variants of Fig. 9/12 in the paper's legend order.
VARIANTS: list[tuple[str, str, str]] = [
    ("ScatterList", "scatterlist", "mpi"),
    ("Fused Scatter", "fused", "mpi"),
    ("Alltoall", "alltoall", "mpi"),
    ("CCL Alltoall", "alltoall", "ccl"),
]

#: Rank sweeps per config (paper x-axes).
STRONG_RANKS = {
    "small": [1, 2, 4, 8],
    "large": [4, 8, 16, 32, 64],
    "mlperf": [1, 2, 4, 8, 16, 26],
}
#: Baseline rank count for speedup/efficiency (Sect. VI-D: optimised
#: 1-socket for small/MLPerf; 4-rank CCL-Alltoall for large).
BASELINE_RANKS = {"small": 1, "large": 4, "mlperf": 1}


def _baseline_time(config: str, platform: str = "cluster", global_n: int | None = None) -> float:
    r0 = BASELINE_RANKS[config]
    base = model_iteration(
        config, r0, platform=platform, backend="ccl", exchange="alltoall",
        global_n=global_n,
    )
    return base.iteration_time


def run_fig9_strong_scaling(configs: tuple[str, ...] = ("small", "large", "mlperf")) -> list[dict[str, object]]:
    """Fig. 9: strong-scaling speed-up and efficiency per variant."""
    rows = []
    for cfg in configs:
        base_t = _baseline_time(cfg)
        r0 = BASELINE_RANKS[cfg]
        for label, exchange, backend in VARIANTS:
            for r in STRONG_RANKS[cfg]:
                if r <= r0:
                    continue
                res = model_iteration(cfg, r, backend=backend, exchange=exchange)
                speedup = base_t / res.iteration_time
                rows.append(
                    {
                        "config": cfg,
                        "variant": label,
                        "ranks": r,
                        "ms_per_iter": res.iteration_time * 1e3,
                        "speedup": speedup,
                        "efficiency": speedup / (r / r0),
                    }
                )
    return rows


def _mode_backend_sweep(
    config: str,
    ranks: list[int],
    result: Callable[..., IterationResult],
    columns: Callable[[IterationResult], dict[str, float]],
) -> list[dict[str, object]]:
    """The sweep Figs. 10/11 and 13/14 share: overlapping then blocking,
    MPI then CCL, every rank count; ``columns`` projects one modelled
    iteration onto the figure's own columns."""
    rows = []
    for blocking in (False, True):
        for backend in ("mpi", "ccl"):
            for r in ranks:
                res = result(config, r, backend=backend, blocking=blocking)
                rows.append(
                    {
                        "config": config,
                        "mode": "blocking" if blocking else "overlapping",
                        "backend": backend,
                        "ranks": r,
                        **columns(res),
                    }
                )
    return rows


def _comm_columns(res: IterationResult) -> dict[str, float]:
    """Framework vs Wait cost per collective (Figs. 11/14)."""
    bd = res.comm_breakdown()
    return {
        "alltoall_framework_ms": bd["Alltoall-Framework"] * 1e3,
        "allreduce_framework_ms": bd["Allreduce-Framework"] * 1e3,
        "alltoall_wait_ms": bd["Alltoall-Wait"] * 1e3,
        "allreduce_wait_ms": bd["Allreduce-Wait"] * 1e3,
    }


def run_fig10_compute_comm(
    config: str = "large", ranks: list[int] | None = None
) -> list[dict[str, object]]:
    """Fig. 10: compute/communication split, overlapping vs blocking,
    MPI vs CCL backend (strong scaling)."""
    return _mode_backend_sweep(
        config,
        ranks if ranks is not None else STRONG_RANKS[config][:5],
        model_iteration,
        lambda res: {
            "compute_ms": res.compute_time * 1e3,
            "comm_ms": res.comm_time * 1e3,
            "total_ms": res.iteration_time * 1e3,
        },
    )


def run_fig11_comm_breakdown(
    config: str = "large", ranks: list[int] | None = None
) -> list[dict[str, object]]:
    """Fig. 11: communication cost split into Framework vs Wait, per
    collective, overlapping vs blocking, per backend (strong scaling)."""
    return _mode_backend_sweep(
        config,
        ranks if ranks is not None else STRONG_RANKS[config][:5],
        model_iteration,
        _comm_columns,
    )


def _weak_result(config: str, r: int, **kw) -> IterationResult:
    cfg = get_config(config)
    return model_iteration(config, r, global_n=cfg.local_minibatch * r, **kw)


def run_fig12_weak_scaling(configs: tuple[str, ...] = ("small", "large", "mlperf")) -> list[dict[str, object]]:
    """Fig. 12: weak-scaling speed-up (throughput) and efficiency."""
    rows = []
    for cfg_name in configs:
        cfg = get_config(cfg_name)
        r0 = BASELINE_RANKS[cfg_name]
        base = _weak_result(cfg_name, r0, backend="ccl", exchange="alltoall")
        base_throughput = cfg.local_minibatch * r0 / base.iteration_time
        for label, exchange, backend in VARIANTS:
            for r in STRONG_RANKS[cfg_name]:
                if r <= r0:
                    continue
                res = _weak_result(cfg_name, r, backend=backend, exchange=exchange)
                throughput = cfg.local_minibatch * r / res.iteration_time
                speedup = throughput / base_throughput * r0
                rows.append(
                    {
                        "config": cfg_name,
                        "variant": label,
                        "ranks": r,
                        "ms_per_iter": res.iteration_time * 1e3,
                        "speedup": speedup,
                        "efficiency": speedup / r,
                    }
                )
    return rows


def run_fig13_compute_comm_weak(
    config: str = "mlperf", ranks: list[int] | None = None
) -> list[dict[str, object]]:
    """Fig. 13: compute/comm split under weak scaling -- including the
    data-loader-driven compute growth on the MLPerf config."""
    return _mode_backend_sweep(
        config,
        ranks if ranks is not None else STRONG_RANKS[config],
        _weak_result,
        lambda res: {
            "compute_ms": res.compute_time * 1e3,
            "comm_ms": res.comm_time * 1e3,
            "loader_ms": res.merged().get("data.loader") * 1e3,
        },
    )


def run_fig14_comm_breakdown_weak(
    config: str = "mlperf", ranks: list[int] | None = None
) -> list[dict[str, object]]:
    """Fig. 14: communication breakdown under weak scaling."""
    return _mode_backend_sweep(
        config,
        ranks if ranks is not None else STRONG_RANKS[config],
        _weak_result,
        _comm_columns,
    )


def run_fig15_8socket(configs: tuple[str, ...] = ("small", "mlperf")) -> list[dict[str, object]]:
    """Fig. 15: strong scaling on the 8-socket shared-memory node.

    The large config is omitted by default: it only fits from 4 sockets
    up even on this node (Table II), and the UPI-node behaviour of
    interest (flat alltoall from 4 to 8 sockets) shows on the others.
    """
    rows = []
    for cfg in configs:
        for r in (1, 2, 4, 8):
            res = model_iteration(
                cfg, r, platform="node",
                backend="ccl" if r > 1 else "local",
                blocking=True,
            )
            bd = res.comm_breakdown()
            rows.append(
                {
                    "config": cfg,
                    "ranks": r,
                    "compute_ms": res.compute_time * 1e3,
                    "allreduce_ms": (bd["Allreduce-Wait"] + bd["Allreduce-Framework"]) * 1e3,
                    "alltoall_ms": (bd["Alltoall-Wait"] + bd["Alltoall-Framework"]) * 1e3,
                    "total_ms": res.iteration_time * 1e3,
                }
            )
    return rows
