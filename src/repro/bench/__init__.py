"""Experiment drivers regenerating every table and figure of the paper.

One driver per experiment; each returns structured rows carrying both the
model-produced numbers and (where the paper prints them) the paper's
reported values, so the benchmark harness can render side-by-side tables
and assert *shape* properties (orderings, ratios, crossovers).
"""

from repro.bench.singlesocket import (
    run_table1,
    run_table2,
    run_fig5_mlp_kernels,
    run_fig6_overlap,
    run_fig7_single_socket,
    run_fig8_breakdown,
)
from repro.bench.scaling import (
    run_fig9_strong_scaling,
    run_fig10_compute_comm,
    run_fig11_comm_breakdown,
    run_fig12_weak_scaling,
    run_fig13_compute_comm_weak,
    run_fig14_comm_breakdown_weak,
    run_fig15_8socket,
)
from repro.bench.convergence import run_fig16_convergence

__all__ = [
    "run_table1",
    "run_table2",
    "run_fig5_mlp_kernels",
    "run_fig6_overlap",
    "run_fig7_single_socket",
    "run_fig8_breakdown",
    "run_fig9_strong_scaling",
    "run_fig10_compute_comm",
    "run_fig11_comm_breakdown",
    "run_fig12_weak_scaling",
    "run_fig13_compute_comm_weak",
    "run_fig14_comm_breakdown_weak",
    "run_fig15_8socket",
    "run_fig16_convergence",
]
