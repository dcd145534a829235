"""Topology-aware priors: what the cost model predicts an arm costs.

Before any trial runs, every candidate RunSpec is priced by the same
analytic machinery that regenerates the paper's figures
(:func:`repro.parallel.timing.model_iteration` over the calibrated
:class:`repro.hw.costmodel.CostModel`), plus the host-substrate term
:meth:`~repro.hw.costmodel.CostModel.host_overhead_time` for the knobs
virtual clocks cannot see (exec backend, pool width, prefetch depth).
The tuner uses these predictions twice:

* **pruning** -- an oversampled candidate pool is ranked by
  :func:`prior_step_s` and only the cheapest arms enter rung 0, so the
  trial budget is not burned on configurations the model already knows
  are bad;
* **attribution** -- :func:`prior_breakdown` is the per-stage time
  split the :mod:`repro.tune.bottleneck` attributor explains wins and
  losses with under the deterministic (``--measure virtual``) scoring
  mode, where wall-clock spans may not be consulted.

Everything here is a pure function of ``(spec, calibration)`` -- no
clocks, no randomness -- which is what keeps ``repro tune --seed N``
bit-reproducible end to end.
"""

from __future__ import annotations

from repro.hw.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hw.costmodel import CostModel
from repro.hw.spec import CLX_8280
from repro.parallel.timing import model_iteration
from repro.train.spec import RunSpec

#: Stage keys of a prior breakdown, in display order.
STAGES = (
    "data",
    "embedding",
    "gemm",
    "update",
    "comm",
    "host",
    "other",
)


def prior_breakdown(
    spec: RunSpec, calib: Calibration = DEFAULT_CALIBRATION
) -> dict[str, float]:
    """Predicted per-step seconds by stage (keys: :data:`STAGES`).

    Distributed specs are modelled on their own topology (placement,
    exchange, bucket size); single-process specs reduce to the one-socket
    model.  ``comm`` is *exposed* communication (the wait categories the
    profiler charges), not total bytes-on-the-wire time.
    """
    cfg = spec.build_config()
    batch = spec.train_batch_size(cfg)
    par = spec.parallel
    if par.ranks > 1:
        topology = dict(
            n_ranks=par.ranks,
            platform=par.platform,
            backend=par.backend,
            exchange=par.exchange,
            placement="round_robin" if par.placement == "auto" else par.placement,
            bucket_mb=par.bucket_mb,
        )
    else:
        topology = dict(n_ranks=1, platform="node", backend="local")
    it = model_iteration(
        cfg,
        update=spec.update.name,
        global_n=batch,
        calib=calib,
        seed=spec.model.seed,
        **topology,
    )
    merged = it.merged()
    data = merged.total("data")
    embedding = merged.total("compute.embedding")
    gemm = merged.total("compute.mlp")
    update = merged.total("update")
    comm = merged.total("comm")
    known = data + embedding + gemm + update + comm
    other = max(0.0, it.iteration_time - known)
    compute = embedding + gemm + update
    # The primed batch hides synthesis behind compute; the payload is
    # the dense features and label a process worker receives.
    host = CostModel(CLX_8280, calib).host_overhead_time(
        par.ranks,
        exec_backend=par.exec_backend,
        workers=par.exec_workers,
        synth_s=data,
        compute_s=compute / 4.0,
        payload_bytes=float(batch) * (cfg.dense_features + 1) * 4.0,
    )
    breakdown = {
        "data": data,
        "embedding": embedding,
        "gemm": gemm,
        "update": update,
        "comm": comm,
        "host": host,
        "other": other,
    }
    if spec.tiering.enabled:
        # The tiered hot prefix serves the Zipf head from cache; credit
        # the embedding stage with the calibrated speedup on the share
        # of look-ups the plan is required to cover.
        covered = spec.tiering.coverage_threshold
        speedup = calib.hot_gather_speedup
        breakdown["embedding"] = embedding * (
            (1.0 - covered) + covered / speedup
        )
    return breakdown


def prior_step_s(spec: RunSpec, calib: Calibration = DEFAULT_CALIBRATION) -> float:
    """Predicted seconds per training step (sum of the stage breakdown)."""
    return sum(prior_breakdown(spec, calib).values())
