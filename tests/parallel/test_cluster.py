"""SimCluster: virtual clocks, collectives, backend pathologies."""

import pytest

from repro.hw.network import CollectiveCost
from repro.parallel.cluster import SimCluster


def make_cluster(r=4, backend="ccl", blocking=False, platform="cluster"):
    return SimCluster(r, platform=platform, backend=backend, blocking=blocking)


def issue_allreduce(c, elems, op="allreduce"):
    """Issue the transfer of an FP32 allreduce of ``elems`` elements per
    rank, priced as a training step prices it."""
    return c.issue(op, c.net.allreduce(c.participants(), 4 * elems))


class TestConstruction:
    def test_platform_defaults(self):
        node = make_cluster(8, platform="node")
        assert node.socket.name.endswith("(SKX)")
        cl = make_cluster(8, platform="cluster")
        assert cl.socket.name.endswith("(CLX)")

    def test_node_caps_at_8_ranks(self):
        with pytest.raises(ValueError):
            SimCluster(9, platform="node")

    def test_compute_cores_reflect_backend(self):
        assert make_cluster(2, backend="ccl").compute_cores == 24
        assert make_cluster(2, backend="mpi").compute_cores == 28

    def test_invalid_platform(self):
        with pytest.raises(ValueError):
            SimCluster(2, platform="cloud")


class TestCharging:
    def test_charge_advances_clock_and_profiler(self):
        c = make_cluster(2)
        c.charge(0, 0.5, "compute.mlp.fwd")
        assert c.clocks[0].now == 0.5
        assert c.profilers[0].get("compute.mlp.fwd") == 0.5
        assert c.clocks[1].now == 0.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            make_cluster(1).charge(0, -1.0, "x")

    def test_elapsed_since_tracks_slowest(self):
        c = make_cluster(2)
        snap = c.snapshot()
        c.charge(0, 1.0, "compute.x")
        c.charge(1, 3.0, "compute.x")
        assert c.elapsed_since(snap) == 3.0


class TestCollectives:
    def test_allreduce_is_paid_at_the_wait(self):
        c = make_cluster(4)
        handle = issue_allreduce(c, 8)
        assert all(p.get("comm.allreduce.wait") == 0 for p in c.profilers)
        handle.wait_all()
        assert all(p.get("comm.allreduce.wait") > 0 for p in c.profilers)

    def test_wait_is_idempotent(self):
        c = make_cluster(2)
        handle = issue_allreduce(c, 4)
        first = handle.wait(0)
        assert handle.wait(0) == 0.0
        assert first >= 0

    def test_wait_unknown_rank_raises(self):
        c = make_cluster(2)
        handle = issue_allreduce(c, 4)
        with pytest.raises(ValueError):
            handle.wait(7)

    def test_overlap_hides_cost(self):
        """Compute charged between issue and wait reduces exposed wait."""
        c = make_cluster(2, backend="ccl")
        handle = issue_allreduce(c, 2_000_000)
        exposed_immediate_cluster = make_cluster(2, backend="ccl")
        issue_allreduce(exposed_immediate_cluster, 2_000_000).wait_all()
        immediate = exposed_immediate_cluster.profilers[0].get("comm.allreduce.wait")
        c.charge_all(immediate / 2, "compute.x")  # overlap half the cost
        handle.wait_all()
        overlapped = c.profilers[0].get("comm.allreduce.wait")
        assert overlapped == pytest.approx(immediate / 2, rel=0.05)

    def test_blocking_mode_exposes_everything(self):
        c = make_cluster(2, blocking=True)
        handle = issue_allreduce(c, 2_000_000)
        assert handle.done
        assert c.profilers[0].get("comm.allreduce.wait") > 0

    def test_alltoall_and_scatter_charge_their_own_op(self):
        c = make_cluster(3)
        nbytes = 9 * 16.0
        c.issue("alltoall", c.net.alltoall(c.participants(), nbytes)).wait_all()
        a2a = c.profilers[0].get("comm.alltoall.wait")
        assert a2a > 0 and c.profilers[0].get("comm.allreduce.wait") == 0
        c.issue("alltoall", c.net.scatter(0, c.participants(), nbytes)).wait_all()
        assert c.profilers[0].get("comm.alltoall.wait") > a2a


class TestBackendPathologies:
    def test_mpi_in_order_absorbs_earlier_op(self):
        """A cheap op waited first pays for an expensive op issued before
        it -- the paper's 'allreduce cost at alltoall wait'."""
        c = make_cluster(4, backend="mpi")
        h_big = issue_allreduce(c, 30_000_000, op="allreduce")
        h_small = issue_allreduce(c, 1000, op="alltoall")
        # Wait the SMALL op first: with in-order completion it cannot
        # finish before the big one.
        h_small.wait_all()
        small_wait = c.profilers[0].get("comm.alltoall.wait")
        h_big.wait_all()
        big_wait = c.profilers[0].get("comm.allreduce.wait")
        assert small_wait > 10 * max(big_wait, 1e-9)

    def test_ccl_out_of_order_does_not_absorb(self):
        c = make_cluster(4, backend="ccl")
        h_big = issue_allreduce(c, 30_000_000, op="allreduce")
        h_small = issue_allreduce(c, 1000, op="alltoall")
        h_small.wait_all()
        small_wait = c.profilers[0].get("comm.alltoall.wait")
        h_big.wait_all()
        big_wait = c.profilers[0].get("comm.allreduce.wait")
        # Out-of-order: the small op still queues behind the shared
        # network engine, but nothing forces it to absorb the big op's
        # completion; most cost lands on the big op's own wait.
        assert big_wait > 0 or small_wait > 0

    def test_mpi_interference_inflates_overlapped_compute(self):
        mpi = make_cluster(2, backend="mpi")
        h = issue_allreduce(mpi, 1000)
        charged = mpi.charge(0, 1.0, "compute.x")
        assert charged == pytest.approx(mpi.backend.compute_interference)
        h.wait_all()
        assert mpi.charge(0, 1.0, "compute.x") == pytest.approx(1.0)

    def test_ccl_no_interference(self):
        ccl = make_cluster(2, backend="ccl")
        h = issue_allreduce(ccl, 1000)
        assert ccl.charge(0, 1.0, "compute.x") == pytest.approx(1.0)
        h.wait_all()

    def test_mpi_slower_transfer_than_ccl(self):
        def wait_time(backend):
            c = make_cluster(4, backend=backend, blocking=True)
            issue_allreduce(c, 10_000_000)
            return c.profilers[0].get("comm.allreduce.wait")

        assert wait_time("mpi") > 1.2 * wait_time("ccl")

    def test_network_engine_serialises_transfers(self):
        """Two collectives issued back-to-back cannot overlap transfers."""
        c = make_cluster(4, backend="ccl")
        h1 = issue_allreduce(c, 10_000_000)
        h2 = issue_allreduce(c, 10_000_000)
        h1.wait_all()
        t1 = c.profilers[0].get("comm.allreduce.wait")
        h2.wait_all()
        t2 = c.profilers[0].get("comm.allreduce.wait")
        assert t2 == pytest.approx(2 * t1, rel=0.05)


class TestIssue:
    def test_zero_cost_completes_immediately(self):
        c = make_cluster(2, backend="local")
        h = c.issue("alltoall", CollectiveCost(0.0, 0.0))
        assert h.wait(0) == 0.0
