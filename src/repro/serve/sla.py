"""Latency/QPS accounting and the cache-aware serving cost model.

Two halves:

* :class:`ServingCost` prices one forward-only micro-batch on a socket
  using the same roofline machinery as training
  (:class:`~repro.hw.costmodel.CostModel`): Bottom-MLP GEMMs, the
  embedding gather -- split by the fast-tier hit rate from
  :mod:`repro.serve.cache` -- the dot interaction, and the Top-MLP
  GEMMs.  Hits are served at a multiple of stream bandwidth (the fast
  tier), misses pay the DRAM random-gather efficiency; this is where the
  cache hit-rate literally feeds the cost model.
* :func:`latency_report` / :func:`sla_frontier` turn per-request
  latencies into the p50/p95/p99 + QPS summaries and the
  throughput-under-SLA frontier the serving benchmark prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import DLRMConfig
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.costmodel import CostModel, GemmShape
from repro.hw.spec import CLX_8280, SocketSpec


class ServingCost:
    """Times one no-grad DLRM micro-batch on one socket."""

    def __init__(
        self,
        cfg: DLRMConfig,
        socket: SocketSpec | None = None,
        calib: Calibration = DEFAULT_CALIBRATION,
        cores: int | None = None,
        fast_tier_bw_factor: float = 4.0,
        impl: str = "this_work",
    ):
        if fast_tier_bw_factor < 1.0:
            raise ValueError("the fast tier cannot be slower than DRAM")
        self.cfg = cfg
        self.cost = CostModel(socket or CLX_8280, calib)
        self.cores = cores
        self.fast_tier_bw_factor = fast_tier_bw_factor
        self.impl = impl

    # -- components ---------------------------------------------------------

    def mlp_time(self, n: int) -> float:
        """Forward GEMMs of the Bottom + Top MLP stacks."""
        total = 0.0
        for fi, fo in self.cfg.mlp_layer_shapes():
            total += self.cost.gemm_time(
                GemmShape(m=n, n=fo, k=fi), impl=self.impl, cores=self.cores
            )
        return total

    def embedding_time(self, total_lookups: int, num_bags: int, hit_rate: float) -> float:
        """Row gather with ``hit_rate`` of the reads served by the fast tier.

        Misses run at DRAM random-gather efficiency (the training
        forward's cost); hits stream from the fast tier at
        ``fast_tier_bw_factor`` times socket bandwidth.
        """
        if not 0.0 <= hit_rate <= 1.0:
            raise ValueError(f"hit_rate must be in [0, 1], got {hit_rate}")
        row_bytes = self.cfg.embedding_dim * 4.0
        bw = self.cost.mem_bw_on(self.cores)
        miss_bw = bw * self.cost.gather_efficiency(row_bytes)
        hit_bw = bw * self.fast_tier_bw_factor
        read = total_lookups * row_bytes * (
            (1.0 - hit_rate) / miss_bw + hit_rate / hit_bw
        )
        write = num_bags * row_bytes / bw
        return read + write + self.cfg.num_tables * self.cost.calib.op_overhead_s

    def interaction_time(self, n: int) -> float:
        return self.cost.interaction_time(
            n, self.cfg.num_vectors, self.cfg.embedding_dim, cores=self.cores
        )

    def batch_time(
        self, n_samples: int, total_lookups: int | None = None, hit_rate: float = 0.0
    ) -> float:
        """End-to-end service time of one micro-batch of ``n_samples``."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if total_lookups is None:
            total_lookups = n_samples * self.cfg.num_tables * self.cfg.lookups_per_table
        return (
            self.mlp_time(n_samples)
            + self.embedding_time(
                total_lookups, n_samples * self.cfg.num_tables, hit_rate
            )
            + self.interaction_time(n_samples)
        )


# -- latency summaries ------------------------------------------------------


@dataclass(frozen=True)
class LatencyReport:
    """Percentile summary of one serving run."""

    count: int
    qps: float
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    def row(self) -> dict[str, object]:
        """Flat dict in milliseconds for the table renderer."""
        return {
            "requests": self.count,
            "qps": self.qps,
            "mean_ms": self.mean_s * 1e3,
            "p50_ms": self.p50_s * 1e3,
            "p95_ms": self.p95_s * 1e3,
            "p99_ms": self.p99_s * 1e3,
            "max_ms": self.max_s * 1e3,
        }


def latency_report(latencies: Sequence[float] | np.ndarray, duration_s: float) -> LatencyReport:
    """Summarise per-request latencies over a run of ``duration_s``."""
    lat = np.asarray(latencies, dtype=np.float64).ravel()
    if lat.size == 0:
        raise ValueError("cannot summarise an empty latency set")
    if (lat < 0).any():
        raise ValueError("latencies must be >= 0")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    p50, p95, p99 = np.percentile(lat, [50.0, 95.0, 99.0])
    return LatencyReport(
        count=int(lat.size),
        qps=lat.size / duration_s,
        mean_s=float(lat.mean()),
        p50_s=float(p50),
        p95_s=float(p95),
        p99_s=float(p99),
        max_s=float(lat.max()),
    )


def sla_frontier(
    rows: Iterable[Mapping[str, object]],
    sla_ms_grid: Sequence[float] = (2.0, 5.0, 10.0, 25.0, 50.0),
) -> list[dict[str, object]]:
    """Throughput-under-SLA frontier over sweep ``rows``.

    For each p99 SLA in ``sla_ms_grid``, picks the sweep point with the
    highest achieved QPS whose p99 meets the SLA (or reports the SLA as
    unattainable).  Rows must carry ``qps`` and ``p99_ms``.
    """
    pts = list(rows)
    out: list[dict[str, object]] = []
    for sla in sla_ms_grid:
        feasible = [r for r in pts if float(r["p99_ms"]) <= sla]
        if not feasible:
            out.append({"sla_p99_ms": sla, "best_qps": 0.0, "operating_point": "(none)"})
            continue
        best = max(feasible, key=lambda r: float(r["qps"]))
        label = str(best.get("label", best.get("policy", "?")))
        out.append(
            {
                "sla_p99_ms": sla,
                "best_qps": float(best["qps"]),
                "operating_point": label,
            }
        )
    return out
