"""Single-socket operator cost model (roofline + calibrated efficiencies).

Every operator the DLRM iteration executes is timed from first-order
machine balance on a :class:`~repro.hw.spec.SocketSpec`:

* GEMMs: ``max(flops / (peak * eff), bytes / stream_bw)`` with the
  per-implementation efficiency curves of Fig. 5 (this work / Facebook
  MLP / PyTorch-MKL).
* Embedding look-ups: a GUPS-like random row gather running near stream
  bandwidth, with an efficiency that grows with row length.
* Embedding updates: strategy-dependent (reference / atomic XCHG / RTM /
  race-free / fused), combining the gather cost with the contention and
  imbalance penalties of :mod:`repro.hw.cache`.
* Elementwise ops and framework copies: stream bandwidth at a calibrated
  efficiency.

The model deliberately has *no* hidden state: every method is a pure
function of shapes, statistics and the documented calibration constants,
so tests can assert monotonicity and scaling properties directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.cache import ContentionModel, IndexStats
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.spec import SocketSpec

#: log10(flops) below which GEMM efficiency bottoms out.
_GEMM_SMALL_LOG_FLOPS = 8.0
#: log10(flops) above which GEMM efficiency reaches its base value.
_GEMM_BIG_LOG_FLOPS = 11.0
#: Cores needed to saturate a socket's memory bandwidth.
_BW_SATURATION_CORES = 8
#: Pool barriers per distributed step (the fused 4-phase schedule of
#: :mod:`repro.parallel.hybrid`): each is one host-side dispatch round.
_HOST_PHASES_PER_STEP = 4


@dataclass(frozen=True)
class GemmShape:
    """An (m x k) @ (k x n) GEMM, C[m, n] accumulated in FP32."""

    m: int
    n: int
    k: int

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k

    @property
    def bytes(self) -> float:
        """Minimum DRAM traffic: read A and B, read+write C."""
        return 4.0 * (self.m * self.k + self.k * self.n + 2.0 * self.m * self.n)


class CostModel:
    """Times DLRM operators on one socket."""

    def __init__(
        self,
        socket: SocketSpec,
        calib: Calibration = DEFAULT_CALIBRATION,
    ):
        self.socket = socket
        self.calib = calib
        self.contention = ContentionModel(
            line_transfer_ns=calib.atomic_line_transfer_ns,
            atomic_instr_ns=calib.atomic_instr_ns,
            rtm_speedup=calib.rtm_speedup,
        )

    # -- shared helpers --------------------------------------------------------

    def _cores(self, cores: int | None) -> int:
        c = self.socket.cores if cores is None else cores
        if not 1 <= c <= self.socket.cores:
            raise ValueError(f"cores must be in [1, {self.socket.cores}], got {c}")
        return c

    def mem_bw_on(self, cores: int | None = None) -> float:
        """Achievable stream bandwidth with a subset of cores (bytes/s).

        Bandwidth ramps linearly and saturates at ~8 cores; DLRM's
        bandwidth-bound kernels therefore barely notice donating 4 cores
        to communication, which is why the paper's core split works.
        """
        c = self._cores(cores)
        frac = min(1.0, c / _BW_SATURATION_CORES)
        return self.socket.mem_bw * frac

    # -- GEMM -------------------------------------------------------------------

    def gemm_efficiency(self, shape: GemmShape, impl: str = "this_work") -> float:
        """Fraction of peak reached by ``impl`` on ``shape`` (Fig. 5 curves)."""
        try:
            eff = self.calib.gemm_efficiency[impl]
        except KeyError:
            raise ValueError(
                f"unknown GEMM impl {impl!r}; have {sorted(self.calib.gemm_efficiency)}"
            ) from None
        logf = math.log10(max(shape.flops, 1.0))
        frac = (_GEMM_BIG_LOG_FLOPS - logf) / (_GEMM_BIG_LOG_FLOPS - _GEMM_SMALL_LOG_FLOPS)
        frac = min(1.0, max(0.0, frac))
        floor = eff.base * eff.small_shape_penalty
        return eff.base - (eff.base - floor) * frac

    def gemm_time(
        self,
        shape: GemmShape,
        impl: str = "this_work",
        pass_: str = "fwd",
        cores: int | None = None,
    ) -> float:
        """Roofline time of one GEMM: compute-bound or bandwidth-bound."""
        c = self._cores(cores)
        eff = self.gemm_efficiency(shape, impl)
        if pass_ == "bwd_w":
            eff *= self.calib.gemm_bwd_w_factor
        elif pass_ not in ("fwd", "bwd_d"):
            raise ValueError(f"pass_ must be fwd/bwd_d/bwd_w, got {pass_!r}")
        peak = self.socket.peak_flops_on(c)
        compute = shape.flops / (peak * eff)
        memory = shape.bytes / self.mem_bw_on(c)
        return max(compute, memory) + self.calib.op_overhead_s

    # -- elementwise / copies ------------------------------------------------------

    def elementwise_time(self, nbytes: float, cores: int | None = None) -> float:
        """Streaming elementwise op over ``nbytes`` of traffic."""
        bw = self.mem_bw_on(cores) * self.calib.elementwise_bw_eff
        return nbytes / bw + self.calib.op_overhead_s

    def copy_time(self, nbytes: float, cores: int | None = None) -> float:
        """Framework flat-buffer packing / gradient averaging copies."""
        bw = self.mem_bw_on(cores) * self.calib.framework_copy_eff
        return nbytes / bw + self.calib.op_overhead_s

    # -- embedding kernels ------------------------------------------------------------

    def gather_efficiency(self, row_bytes: float) -> float:
        """Random-row gather efficiency vs. stream bandwidth.

        Short rows (one or two cache lines) waste prefetch streams; rows
        approaching 1 KiB amortise the random access almost entirely.
        """
        cal = self.calib
        frac = min(1.0, row_bytes / cal.gather_eff_saturation_bytes)
        return cal.gather_eff_min + (cal.gather_eff_max - cal.gather_eff_min) * frac

    def tiered_gather_time(
        self,
        total_lookups: int,
        row_bytes: float,
        hot_traffic_fraction: float = 0.0,
        cores: int | None = None,
    ) -> float:
        """Random-row read time under hot-first storage (:mod:`repro.tiering`).

        ``hot_traffic_fraction`` of the look-ups hit the cache-resident
        hot prefix (``hot_gather_speedup`` faster than DRAM-random); the
        rest fall through to the file-mapped tail (``cold_gather_slowdown``
        slower).  At fraction 0 this prices a flat table up to the small
        mapping derating, so the planner can compare modes on one scale.
        """
        bw = self.mem_bw_on(cores) * self.gather_efficiency(row_bytes)
        factor = self.tiered_traffic_factor(hot_traffic_fraction)
        return factor * total_lookups * row_bytes / bw

    def tiered_traffic_factor(self, hot_traffic_fraction: float) -> float:
        """Scale on row-granular random traffic under hot-first storage.

        1.0 at fraction 0 (flat pricing), dropping toward
        ``1 / hot_gather_speedup`` as the hot prefix absorbs the traffic;
        the cold remainder pays ``cold_gather_slowdown``.  Applied to
        gathers, scatters and in-place updates alike -- all are
        row-granular random accesses whose cost tracks the tier the row
        lives in.
        """
        if not 0.0 <= hot_traffic_fraction <= 1.0:
            raise ValueError(
                f"hot_traffic_fraction must be in [0, 1], got {hot_traffic_fraction}"
            )
        if hot_traffic_fraction == 0.0:
            return 1.0
        cal = self.calib
        return (
            hot_traffic_fraction / cal.hot_gather_speedup
            + (1.0 - hot_traffic_fraction) * cal.cold_gather_slowdown
        )

    def embedding_forward_time(
        self,
        total_lookups: int,
        num_bags: int,
        row_bytes: float,
        num_tables: int = 1,
        cores: int | None = None,
    ) -> float:
        """Alg. 1: read ``total_lookups`` random rows, write ``num_bags`` rows."""
        bw = self.mem_bw_on(cores)
        read = total_lookups * row_bytes / (bw * self.gather_efficiency(row_bytes))
        write = num_bags * row_bytes / bw
        return read + write + num_tables * self.calib.op_overhead_s

    def embedding_backward_time(
        self,
        total_lookups: int,
        num_bags: int,
        row_bytes: float,
        num_tables: int = 1,
        cores: int | None = None,
    ) -> float:
        """Alg. 2: read ``num_bags`` gradient rows, write ``total_lookups`` rows."""
        bw = self.mem_bw_on(cores)
        read = num_bags * row_bytes / bw
        write = total_lookups * row_bytes / bw
        return read + write + num_tables * self.calib.op_overhead_s

    def embedding_update_time(
        self,
        strategy: str,
        stats: IndexStats | list[IndexStats],
        row_bytes: float,
        cores: int | None = None,
    ) -> float:
        """Alg. 3/4 sparse-SGD update under one of the paper's strategies.

        ``stats`` may be a single table's :class:`IndexStats` or a list
        (tables update sequentially; contention and imbalance are
        per-table phenomena, so they must be summed per table, not on
        merged statistics).

        All strategies move at least ``3 * rows * row_bytes`` (read the
        gradient row, read and write the weight row); they differ in the
        contention / imbalance / dispatch penalties.
        """
        if isinstance(stats, list):
            return sum(
                self.embedding_update_time(strategy, s, row_bytes, cores) for s in stats
            )
        c = self._cores(cores)
        rows = stats.total
        base_bytes = 3.0 * rows * row_bytes
        bw = self.mem_bw_on(c) * self.gather_efficiency(row_bytes)
        base = base_bytes / bw
        cal = self.calib
        if strategy == "reference":
            # Naive single-threaded framework kernel: per-row dispatch.
            return rows * cal.reference_row_dispatch_us * 1e-6
        if strategy == "atomic":
            extra = self.contention.thrash_time(stats, row_bytes)
            extra += self.contention.atomic_overhead_time(stats, row_bytes)
            return base + extra + cal.op_overhead_s
        if strategy == "rtm":
            # Same thrashing, but SIMD FMAs inside the transaction remove
            # the scalar-atomic instruction overhead and shave ~10%.
            extra = self.contention.thrash_time(stats, row_bytes)
            return (base + extra) * cal.rtm_speedup + cal.op_overhead_s
        if strategy in ("racefree", "fused"):
            scan = (
                stats.total * cal.racefree_scan_bytes_per_index * c / self.socket.mem_bw
            )
            t = base * self.contention.racefree_imbalance(stats) + scan
            if strategy == "fused":
                t /= cal.fused_update_speedup
            return t + cal.op_overhead_s
        raise ValueError(
            "strategy must be one of reference/atomic/rtm/racefree/fused, "
            f"got {strategy!r}"
        )

    # -- interaction -------------------------------------------------------------------------

    def interaction_time(self, n: int, vectors: int, e: int, cores: int | None = None) -> float:
        """Dot-product interaction: N batched (vectors x E) self-GEMMs."""
        shape = GemmShape(m=vectors, n=vectors, k=e)
        c = self._cores(cores)
        flops = n * shape.flops
        nbytes = n * 4.0 * (2 * vectors * e + vectors * vectors)
        eff = self.gemm_efficiency(GemmShape(m=vectors * n, n=vectors, k=e))
        compute = flops / (self.socket.peak_flops_on(c) * eff)
        memory = nbytes / self.mem_bw_on(c)
        return max(compute, memory) + self.calib.op_overhead_s

    # -- data loader -----------------------------------------------------------------------------

    def loader_time(self, samples: int) -> float:
        """Terabyte-dataset loader cost (parses every sample it reads)."""
        return samples * self.calib.loader_us_per_sample * 1e-6

    # -- host execution substrate -------------------------------------------------------------

    def host_overhead_time(
        self,
        ranks: int,
        exec_backend: str = "thread",
        workers: int | None = None,
        synth_s: float = 0.0,
        compute_s: float = 0.0,
        payload_bytes: float = 0.0,
    ) -> float:
        """Deterministic per-step cost of the *host* execution substrate.

        The virtual clocks price the modelled hardware, but the Python
        driver around them is real overhead too: per-rank-phase dispatch
        (serialised by the GIL under the thread backend, divided across
        worker processes under the process backend), the process
        backend's per-step mailbox round (``payload_bytes`` of cross-rank
        tensors through shared memory), and whatever batch-synthesis
        time (``synth_s``) the primed next batch fails to hide under
        ``compute_s`` of step compute.  A pure function of its arguments
        -- the ``repro.tune`` deterministic score uses it to rank the
        ``exec_backend`` / ``exec_workers`` knobs the (backend-invariant)
        virtual clocks cannot see.
        """
        if exec_backend not in ("thread", "process"):
            raise ValueError(
                f"exec_backend must be 'thread' or 'process', got {exec_backend!r}"
            )
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        dispatch = self.calib.host_dispatch_us * 1e-6 * _HOST_PHASES_PER_STEP
        if ranks == 1:
            overhead = 0.0
            pool_width = max(1, workers or 1)
        elif exec_backend == "thread":
            # Python-level phase dispatch never parallelises: the pool's
            # worker threads all contend for the one interpreter lock.
            overhead = dispatch * ranks
            pool_width = max(1, workers or 1)
        else:
            w = max(1, min(workers or ranks, ranks))
            overhead = (
                dispatch * math.ceil(ranks / w)
                + self.calib.mailbox_round_s
                + self.copy_time(payload_bytes)
            )
            # Process workers synthesize batches locally; synthesis
            # hides like the workers>1 case.
            pool_width = 2
        if synth_s > 0.0:
            if pool_width == 1:
                overhead += synth_s  # synchronous synthesis: fully exposed
            else:
                overhead += max(0.0, synth_s - max(compute_s, 0.0))
        return overhead
