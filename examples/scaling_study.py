"""Strong/weak scaling study across exchange strategies and backends.

Sweeps the analytic iteration model over rank counts for all three paper
configurations, printing Fig. 9/12-style speed-up tables plus the
compute/communication split that explains them (Figs. 10-14).

Usage:  python examples/scaling_study.py [config]   (default: large)
"""

import sys

from repro.bench.scaling import (
    BASELINE_RANKS,
    STRONG_RANKS,
    run_fig9_strong_scaling,
    run_fig12_weak_scaling,
)
from repro.core.config import get_config
from repro.parallel.timing import model_iteration
from repro.util import format_table


def comm_split_table(config: str) -> None:
    rows = []
    for r in STRONG_RANKS[config]:
        if r < BASELINE_RANKS[config]:
            continue
        res = model_iteration(config, r, backend="ccl", blocking=True)
        bd = res.comm_breakdown()
        rows.append(
            {
                "ranks": r,
                "compute_ms": res.compute_time * 1e3,
                "alltoall_ms": bd["Alltoall-Wait"] * 1e3,
                "allreduce_ms": bd["Allreduce-Wait"] * 1e3,
                "total_ms": res.iteration_time * 1e3,
            }
        )
    print(format_table(rows, title=f"\n{config}: blocking compute/comm split (CCL)"))


def main(config: str | None = None) -> None:
    if config is None:
        config = sys.argv[1] if len(sys.argv) > 1 else "large"
    get_config(config)  # validate the name early

    strong = [r for r in run_fig9_strong_scaling((config,))]
    print(format_table(
        strong,
        columns=["variant", "ranks", "ms_per_iter", "speedup", "efficiency"],
        title=f"{config}: strong scaling (GN={get_config(config).global_minibatch})",
    ))
    weak = [r for r in run_fig12_weak_scaling((config,))]
    print(format_table(
        weak,
        columns=["variant", "ranks", "ms_per_iter", "speedup", "efficiency"],
        title=f"\n{config}: weak scaling (LN={get_config(config).local_minibatch})",
    ))
    comm_split_table(config)
    print(
        "\nReading guide: CCL-Alltoall wins everywhere; the scatter-based\n"
        "exchanges serialise at the table owners' ports; strong-scaling\n"
        "efficiency decays as the fixed-volume allreduce (Eq. 1) meets\n"
        "shrinking compute, while the alltoall (Eq. 2) gets cheaper."
    )


if __name__ == "__main__":
    main()
