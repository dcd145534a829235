"""Machine specifications for the two platforms evaluated in the paper.

Section V of the paper describes both testbeds:

* An Inspur TS860M5 8-socket shared-memory node.  Each socket is an Intel
  Xeon Platinum 8180 (Skylake, 28 cores, 2.3 GHz AVX512 turbo) with twelve
  DDR4-2400 DIMMs (100 GB/s, 192 GB per socket).  Sockets are connected by
  3 UPI links each, arranged as a twisted hypercube.
* A 32-node dual-socket cluster.  Each socket is an Intel Xeon Platinum
  8280 (Cascade Lake, 28 cores, 2.4 GHz AVX512 turbo) with six DDR4-2666
  DIMMs (105 GB/s, 96 GB per socket; 4 nodes have 192 GB/socket).  Each
  socket has its own 100G Omni-Path adapter into a 2:1 pruned fat-tree.

All quantities carried here are the application-visible ones the paper
reasons with: peak FP32 flops, stream bandwidth, capacity, link bandwidth
and latency.
"""

from __future__ import annotations

from dataclasses import dataclass

#: FP32 operations per core per cycle with AVX512: two 512-bit FMA units,
#: 16 lanes each, 2 flops (mul+add) per lane.
AVX512_FP32_FLOPS_PER_CYCLE = 2 * 16 * 2


@dataclass(frozen=True)
class SocketSpec:
    """A single CPU socket: the unit of rank placement in this work."""

    name: str
    cores: int
    avx512_turbo_ghz: float
    avx512_base_ghz: float
    mem_bw_gbs: float
    mem_capacity_gb: float
    flops_per_core_per_cycle: int = AVX512_FP32_FLOPS_PER_CYCLE

    @property
    def peak_flops(self) -> float:
        """Peak FP32 flops/s at AVX512 turbo (the figure the paper quotes)."""
        return self.cores * self.avx512_turbo_ghz * 1e9 * self.flops_per_core_per_cycle

    @property
    def mem_bw(self) -> float:
        """Stream memory bandwidth in bytes/s."""
        return self.mem_bw_gbs * 1e9

    def peak_flops_on(self, cores: int) -> float:
        """Peak flops of a subset of ``cores`` (for compute/comm core splits)."""
        if not 0 <= cores <= self.cores:
            raise ValueError(f"cores must be in [0, {self.cores}], got {cores}")
        return cores * self.avx512_turbo_ghz * 1e9 * self.flops_per_core_per_cycle


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point interconnect link (UPI hop or OPA cable)."""

    name: str
    bw_gbs: float  # per-direction bandwidth, GB/s
    latency_us: float
    #: True for load/store style fabrics (UPI) where a socket can move data
    #: with plain non-temporal stores; False for NIC-based fabrics (OPA)
    #: that pay extra internal copies through the network stack.
    load_store: bool = False

    @property
    def bw(self) -> float:
        return self.bw_gbs * 1e9

    @property
    def latency(self) -> float:
        return self.latency_us * 1e-6


# --- Paper platform presets -------------------------------------------------

#: Intel Xeon Platinum 8180 (Skylake-SP): 28 cores, 2.3 GHz AVX512 turbo,
#: 1.7 GHz AVX512 base -> 4.1 TFLOPS FP32; 12x 16 GB DDR4-2400 = 192 GB at
#: 100 GB/s (paper Sect. V-A).
SKX_8180 = SocketSpec(
    name="Xeon Platinum 8180 (SKX)",
    cores=28,
    avx512_turbo_ghz=2.3,
    avx512_base_ghz=1.7,
    mem_bw_gbs=100.0,
    mem_capacity_gb=192.0,
)

#: Intel Xeon Platinum 8280 (Cascade Lake-SP): 28 cores, 2.4 GHz AVX512
#: turbo, 1.8 GHz base -> 4.3 TFLOPS FP32; 6x 16 GB DDR4-2666 = 96 GB at
#: 105 GB/s (paper Sect. V-B).
CLX_8280 = SocketSpec(
    name="Xeon Platinum 8280 (CLX)",
    cores=28,
    avx512_turbo_ghz=2.4,
    avx512_base_ghz=1.8,
    mem_bw_gbs=105.0,
    mem_capacity_gb=96.0,
)

#: One UPI link: ~22 GB/s bidirectional -> ~11 GB/s per direction, sub-us
#: latency, true load/store semantics (no copies through a NIC stack).
UPI_LINK = LinkSpec(name="UPI", bw_gbs=11.0, latency_us=0.6, load_store=True)

#: One OPA port: 100 Gbit/s = 12.5 GB/s per direction at 1 us latency.
OPA_LINK = LinkSpec(name="OPA-100G", bw_gbs=12.5, latency_us=1.0, load_store=False)
