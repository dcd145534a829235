"""Operator cost model: roofline behaviour and Fig. 5/7 anchors."""

import numpy as np
import pytest

from repro.hw.cache import IndexStats, index_stats
from repro.hw.costmodel import CostModel, GemmShape
from repro.hw.spec import CLX_8280, SKX_8180


@pytest.fixture
def cm() -> CostModel:
    return CostModel(SKX_8180)


def unif_stats(rows=1_000_000, total=100_000, threads=28, seed=0):
    rng = np.random.default_rng(seed)
    return index_stats(rng.integers(0, rows, size=total), rows, threads)


class TestGemm:
    def test_large_gemm_near_peak_efficiency(self, cm):
        shape = GemmShape(4096, 4096, 4096)
        eff = cm.gemm_efficiency(shape, "this_work")
        assert eff == pytest.approx(0.80, abs=0.02)

    def test_fig5_ordering_this_work_beats_mkl(self, cm):
        """Fig. 5: this work ~72% avg vs PyTorch-MKL ~61% avg."""
        shapes = [GemmShape(1024, k, k) for k in (1024, 2048, 4096)]
        ours = np.mean([cm.gemm_efficiency(s, "this_work") for s in shapes])
        fb = np.mean([cm.gemm_efficiency(s, "fb_mlp") for s in shapes])
        mkl = np.mean([cm.gemm_efficiency(s, "pytorch_mkl") for s in shapes])
        assert ours == pytest.approx(0.72, abs=0.05)
        assert fb == pytest.approx(0.75, abs=0.05)
        assert mkl == pytest.approx(0.61, abs=0.06)
        assert mkl < ours < fb + 0.06

    def test_time_scales_with_flops(self, cm):
        t1 = cm.gemm_time(GemmShape(1024, 1024, 1024))
        t2 = cm.gemm_time(GemmShape(2048, 1024, 1024))
        assert 1.5 < t2 / t1 < 2.5

    def test_bwd_w_slower_than_fwd(self, cm):
        s = GemmShape(1024, 1024, 1024)
        assert cm.gemm_time(s, pass_="bwd_w") > cm.gemm_time(s, pass_="fwd")

    def test_tiny_gemm_is_bandwidth_bound(self, cm):
        s = GemmShape(4096, 1, 1024)  # the top MLP's final layer
        compute = s.flops / cm.socket.peak_flops
        assert cm.gemm_time(s) > 2 * compute

    def test_fewer_cores_slower(self, cm):
        s = GemmShape(1024, 1024, 1024)
        assert cm.gemm_time(s, cores=14) > cm.gemm_time(s, cores=28)

    def test_unknown_impl_raises(self, cm):
        with pytest.raises(ValueError, match="unknown GEMM impl"):
            cm.gemm_time(GemmShape(8, 8, 8), impl="cublas")

    def test_unknown_pass_raises(self, cm):
        with pytest.raises(ValueError):
            cm.gemm_time(GemmShape(8, 8, 8), pass_="wgrad")


class TestBandwidthModel:
    def test_bw_saturates_at_8_cores(self, cm):
        assert cm.mem_bw_on(8) == cm.mem_bw_on(28)
        assert cm.mem_bw_on(4) == pytest.approx(cm.mem_bw_on(8) / 2)

    def test_donating_4_comm_cores_is_free_for_bw(self, cm):
        """Why the paper's 24+4 core split works for DLRM."""
        assert cm.mem_bw_on(24) == cm.mem_bw_on(28)

    def test_core_range_validated(self, cm):
        with pytest.raises(ValueError):
            cm.mem_bw_on(0)


class TestEmbeddingKernels:
    def test_forward_time_scales_with_lookups(self, cm):
        t1 = cm.embedding_forward_time(100_000, 2048, 256)
        t2 = cm.embedding_forward_time(200_000, 2048, 256)
        assert t2 > 1.8 * t1

    def test_gather_efficiency_grows_with_row_bytes(self, cm):
        assert cm.gather_efficiency(1024) > cm.gather_efficiency(256)
        assert cm.gather_efficiency(4096) <= 0.95

    def test_reference_update_is_orders_slower(self, cm):
        s = unif_stats()
        ref = cm.embedding_update_time("reference", s, 256)
        fast = cm.embedding_update_time("racefree", s, 256)
        assert ref / fast > 50

    def test_no_contention_strategies_tie(self, cm):
        """Fig. 7 small config: uniform indices -> all optimised
        strategies within a small factor of each other (vs. the orders
        of magnitude separating them from the reference)."""
        s = unif_stats()
        times = [
            cm.embedding_update_time(k, s, 256) for k in ("atomic", "rtm", "racefree")
        ]
        assert max(times) / min(times) < 1.6

    def test_contention_separates_atomic_from_racefree(self, cm):
        """Fig. 7 MLPerf config: hot rows make atomic ~10x race-free."""
        hot = IndexStats(2048, 3, 2045, 1200, 3, conflicts=2000.0, imbalance=10.0)
        atomic = cm.embedding_update_time("atomic", hot, 512)
        racefree = cm.embedding_update_time("racefree", hot, 512)
        assert atomic / racefree > 3

    def test_rtm_faster_than_atomic_under_contention(self, cm):
        hot = IndexStats(2048, 3, 2045, 1200, 3, conflicts=2000.0, imbalance=1.0)
        assert cm.embedding_update_time("rtm", hot, 512) < cm.embedding_update_time(
            "atomic", hot, 512
        )

    def test_fused_is_faster_than_racefree(self, cm):
        """The standalone 1.6x fusion experiment (Sect. III-A)."""
        s = unif_stats()
        rf = cm.embedding_update_time("racefree", s, 256)
        fused = cm.embedding_update_time("fused", s, 256)
        assert rf / fused == pytest.approx(1.6, abs=0.25)

    def test_stats_list_sums_per_table(self, cm):
        s = unif_stats()
        single = cm.embedding_update_time("racefree", s, 256)
        double = cm.embedding_update_time("racefree", [s, s], 256)
        assert double == pytest.approx(2 * single, rel=1e-6)

    def test_unknown_strategy_raises(self, cm):
        with pytest.raises(ValueError):
            cm.embedding_update_time("gpu", unif_stats(), 256)


class TestOtherOps:
    def test_elementwise_scales_with_bytes(self, cm):
        assert cm.elementwise_time(2e6) > 1.9 * cm.elementwise_time(1e6) - 1e-4

    def test_loader_linear_in_samples(self, cm):
        assert cm.loader_time(2048) == pytest.approx(2 * cm.loader_time(1024))

    def test_interaction_time_positive_and_scaling(self, cm):
        t1 = cm.interaction_time(1024, 9, 64)
        t2 = cm.interaction_time(2048, 9, 64)
        assert 0 < t1 < t2

    def test_clx_slightly_faster_than_skx(self):
        s = GemmShape(2048, 2048, 2048)
        assert CostModel(CLX_8280).gemm_time(s) < CostModel(SKX_8180).gemm_time(s)


class TestHostOverhead:
    @pytest.fixture
    def cm(self):
        return CostModel(CLX_8280)

    def test_single_process_is_free(self, cm):
        assert cm.host_overhead_time(1, "thread") == 0.0

    def test_thread_dispatch_scales_with_ranks(self, cm):
        assert cm.host_overhead_time(4, "thread") == pytest.approx(
            2 * cm.host_overhead_time(2, "thread")
        )

    def test_process_pays_mailbox_and_copy(self, cm):
        thread = cm.host_overhead_time(2, "thread", workers=2)
        process = cm.host_overhead_time(2, "process", workers=2, payload_bytes=1e6)
        assert process != thread
        assert process >= cm.calib.mailbox_round_s

    def test_process_dispatch_amortised_by_workers(self, cm):
        narrow = cm.host_overhead_time(4, "process", workers=1)
        wide = cm.host_overhead_time(4, "process", workers=4)
        assert wide < narrow

    def test_the_primed_batch_hides_synthesis_under_compute(self, cm):
        base = cm.host_overhead_time(2, "thread", workers=2)
        exposed = cm.host_overhead_time(2, "thread", workers=2, synth_s=2e-3, compute_s=5e-4)
        hidden = cm.host_overhead_time(2, "thread", workers=2, synth_s=2e-3, compute_s=3e-3)
        assert exposed == pytest.approx(base + 1.5e-3) and hidden == base

    def test_serial_pool_cannot_hide_synthesis(self, cm):
        base = cm.host_overhead_time(2, "thread", workers=1)
        with_synth = cm.host_overhead_time(
            2, "thread", workers=1, synth_s=2e-3, compute_s=1e-3
        )
        assert with_synth == pytest.approx(base + 2e-3)

    def test_invalid_args_rejected(self, cm):
        with pytest.raises(ValueError, match="exec_backend"):
            cm.host_overhead_time(2, "gpu")
        with pytest.raises(ValueError, match="ranks"):
            cm.host_overhead_time(0, "thread")
