"""The virtual-clock Profiler and VirtualClock of ``repro.parallel.cluster``."""

import pytest

from repro.parallel.cluster import COMM_BUCKETS, Profiler, VirtualClock


class TestVirtualClock:
    def test_advance(self):
        c = VirtualClock()
        assert c.advance(1.5) == 1.5
        assert c.now == 1.5

    def test_advance_to_only_forward(self):
        c = VirtualClock(5.0)
        c.advance_to(3.0)
        assert c.now == 5.0
        c.advance_to(7.0)
        assert c.now == 7.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestProfiler:
    def test_add_and_get(self):
        p = Profiler()
        p.add("compute.mlp.fwd", 1.0)
        p.add("compute.mlp.fwd", 0.5)
        assert p.get("compute.mlp.fwd") == 1.5

    def test_prefix_totals(self):
        p = Profiler()
        p.add("compute.mlp.fwd", 1.0)
        p.add("compute.mlp.bwd", 2.0)
        p.add("compute.embedding.fwd", 4.0)
        assert p.total("compute.mlp") == 3.0
        assert p.total("compute") == 7.0
        assert p.total() == 7.0

    def test_prefix_does_not_match_substrings(self):
        p = Profiler()
        p.add("compute.mlpx", 1.0)
        assert p.total("compute.mlp") == 0.0

    def test_merge(self):
        a, b = Profiler(), Profiler()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.get("x") == 3.0 and a.get("y") == 3.0

    def test_compute_vs_comm_split(self):
        p = Profiler()
        p.add("compute.mlp.fwd", 1.0)
        p.add("update.sparse", 2.0)
        p.add("data.loader", 0.5)
        p.add("comm.alltoall.framework", 0.25)
        p.add("comm.alltoall.wait", 4.0)
        p.add("comm.allreduce.wait", 1.0)
        # Framework copies count as compute (they burn cores), waits as comm.
        assert p.compute_time() == pytest.approx(3.75)
        assert p.comm_time() == pytest.approx(5.0)

    def test_comm_breakdown_buckets(self):
        p = Profiler()
        for name, prefix in COMM_BUCKETS.items():
            p.add(prefix, 1.0)
        assert all(v == 1.0 for v in p.comm_breakdown().values())

    def test_validation(self):
        p = Profiler()
        with pytest.raises(ValueError):
            p.add("", 1.0)
        with pytest.raises(ValueError):
            p.add("x", -1.0)

    def test_clear(self):
        p = Profiler()
        p.add("x", 1.0)
        p.clear()
        assert p.total() == 0.0
