"""Machine specs: the paper's published platform numbers."""

import dataclasses

import pytest

from repro.hw.spec import (
    CLX_8280,
    OPA_LINK,
    SKX_8180,
    UPI_LINK,
)
from repro.hw.topology import pruned_fat_tree, twisted_hypercube


class TestSocketSpecs:
    def test_skx_8180_peak_is_4_1_tflops(self):
        # Sect. V-A: 28 cores @ 2.3 GHz AVX512 turbo -> 4.1 TFLOPS FP32.
        assert SKX_8180.peak_flops == pytest.approx(4.1e12, rel=0.02)

    def test_clx_8280_peak_is_4_3_tflops(self):
        # Sect. V-B: 28 cores @ 2.4 GHz -> 4.3 TFLOPS FP32.
        assert CLX_8280.peak_flops == pytest.approx(4.3e12, rel=0.02)

    def test_clx_has_100mhz_on_skx(self):
        assert CLX_8280.avx512_turbo_ghz - SKX_8180.avx512_turbo_ghz == pytest.approx(0.1)

    def test_memory_bandwidths(self):
        assert SKX_8180.mem_bw_gbs == 100.0
        assert CLX_8280.mem_bw_gbs == 105.0

    def test_partial_core_peak(self):
        assert SKX_8180.peak_flops_on(14) == pytest.approx(SKX_8180.peak_flops / 2)
        with pytest.raises(ValueError):
            SKX_8180.peak_flops_on(29)

    def test_with_capacity(self):
        fat = dataclasses.replace(CLX_8280, mem_capacity_gb=192.0)
        assert fat.mem_capacity_gb == 192.0
        assert fat.cores == CLX_8280.cores


class TestNodeAndCluster:
    def test_eight_socket_node_totals(self):
        # Sect. V-A: 224 cores, 32 TFLOPS, 1.5 TB.
        sockets = len(twisted_hypercube().sockets)
        assert sockets * SKX_8180.cores == 224
        assert sockets * SKX_8180.peak_flops == pytest.approx(32e12, rel=0.05)
        assert sockets * SKX_8180.mem_capacity == pytest.approx(1.5e12, rel=0.05)

    def test_cluster_totals(self):
        # Sect. V-B: 1792 cores, 275 TFLOPS.
        sockets = len(pruned_fat_tree().sockets)
        assert sockets == 64
        assert sockets * CLX_8280.cores == 1792
        assert sockets * CLX_8280.peak_flops == pytest.approx(275e12, rel=0.02)


class TestLinks:
    def test_upi_is_load_store(self):
        assert UPI_LINK.load_store and not OPA_LINK.load_store

    def test_opa_is_100gbit(self):
        assert OPA_LINK.bw == pytest.approx(12.5e9)
        assert OPA_LINK.latency == pytest.approx(1e-6)

    def test_upi_bidirectional_22gbs(self):
        # "Each of the UPI link offers roughly 22 GB/s bidirectional".
        assert 2 * UPI_LINK.bw == pytest.approx(22e9)
