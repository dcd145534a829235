"""VirtualClock: the per-rank simulated time base."""

import pytest

from repro.parallel.cluster import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=2.5).now == 2.5

    def test_advance_accumulates_and_returns_now(self):
        c = VirtualClock()
        assert c.advance(1.5) == 1.5
        assert c.advance(0.5) == 2.0
        assert c.now == 2.0

    def test_advance_zero_is_legal(self):
        c = VirtualClock()
        assert c.advance(0.0) == 0.0

    def test_negative_advance_raises(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1e-9)

    def test_advance_to_future(self):
        c = VirtualClock()
        assert c.advance_to(3.0) == 3.0
        assert c.now == 3.0

    def test_advance_to_past_is_a_noop(self):
        """The monotonicity the lockstep cluster relies on: waiting on an
        already-completed collective must not move time backwards."""
        c = VirtualClock(start=5.0)
        assert c.advance_to(2.0) == 5.0
        assert c.now == 5.0
