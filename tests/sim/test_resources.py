"""Tests for the resource-occupancy servers."""

import pytest

from repro.sim.resources import BandwidthServer, RequestQueue, ThroughputUnit


class TestBandwidthServer:
    def test_single_access_pays_occupancy_plus_latency(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=10.0)
        ready = server.access(arrival=0.0, nbytes=128)
        assert ready == pytest.approx(2.0 + 10.0)

    def test_back_to_back_accesses_queue(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=0.0)
        first = server.access(0.0, 64)
        second = server.access(0.0, 64)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_idle_gap_not_charged(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=0.0)
        server.access(0.0, 64)
        ready = server.access(100.0, 64)
        assert ready == pytest.approx(101.0)

    def test_latency_is_pipelined_not_occupancy(self):
        # Two accesses: the second starts when the first's *occupancy*
        # ends, not when its latency ends.
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=50.0)
        first = server.access(0.0, 64)
        second = server.access(0.0, 64)
        assert first == pytest.approx(51.0)
        assert second == pytest.approx(52.0)

    def test_zero_byte_access_pays_only_latency(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=7.0)
        assert server.access(3.0, 0) == pytest.approx(10.0)

    def test_total_accounting(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=32.0)
        server.access(0.0, 64)
        server.access(0.0, 32)
        assert server.total_bytes == 96.0
        assert server.total_requests == 2
        assert server.busy_cycles == pytest.approx(3.0)

    def test_negative_size_rejected(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0)
        with pytest.raises(ValueError):
            server.access(0.0, -1)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            BandwidthServer(name="bad", bytes_per_cycle=0.0)

    def test_reset(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0)
        server.access(0.0, 128)
        server.reset()
        assert server.total_bytes == 0.0
        assert server.next_free == 0.0


class TestThroughputUnit:
    def test_issue_rate_limits_throughput(self):
        unit = ThroughputUnit(name="alu", ops_per_cycle=4.0, pipeline_depth=0.0)
        first = unit.issue(0.0, ops=8)
        second = unit.issue(0.0, ops=4)
        assert first == pytest.approx(2.0)
        assert second == pytest.approx(3.0)

    def test_pipeline_depth_added_to_completion(self):
        unit = ThroughputUnit(name="alu", ops_per_cycle=1.0, pipeline_depth=5.0)
        assert unit.issue(0.0, ops=1) == pytest.approx(6.0)

    def test_zero_ops_is_noop_with_depth(self):
        unit = ThroughputUnit(name="alu", ops_per_cycle=2.0, pipeline_depth=3.0)
        assert unit.issue(10.0, ops=0) == pytest.approx(13.0)
        assert unit.next_issue == 10.0

    def test_op_accounting(self):
        unit = ThroughputUnit(name="alu", ops_per_cycle=2.0)
        unit.issue(0.0, ops=10)
        assert unit.total_ops == 10
        assert unit.busy_cycles == pytest.approx(5.0)

    def test_negative_ops_rejected(self):
        unit = ThroughputUnit(name="alu", ops_per_cycle=1.0)
        with pytest.raises(ValueError):
            unit.issue(0.0, ops=-1)

    def test_reset(self):
        unit = ThroughputUnit(name="alu", ops_per_cycle=1.0)
        unit.issue(0.0, ops=4)
        unit.reset()
        assert unit.total_ops == 0
        assert unit.next_issue == 0.0


class TestRequestQueue:
    def test_admission_immediate_when_empty(self):
        queue = RequestQueue(name="q", capacity=4, drain_rate=1.0)
        assert queue.enqueue(5.0) == pytest.approx(5.0)

    def test_backpressure_when_full(self):
        queue = RequestQueue(name="q", capacity=2, drain_rate=1.0)
        for _ in range(2):
            queue.enqueue(0.0)
        # The third arrival must wait for the head to drain.
        admitted = queue.enqueue(0.0)
        assert admitted > 0.0

    def test_stall_cycles_accumulate(self):
        queue = RequestQueue(name="q", capacity=1, drain_rate=1.0)
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        assert queue.total_stall_cycles > 0.0
        assert queue.total_enqueued == 3

    def test_no_stall_when_arrivals_spread_out(self):
        queue = RequestQueue(name="q", capacity=4, drain_rate=1.0)
        for cycle in range(10):
            assert queue.enqueue(float(cycle * 2)) == pytest.approx(cycle * 2)
        assert queue.total_stall_cycles == 0.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            RequestQueue(name="q", capacity=0)
        with pytest.raises(ValueError):
            RequestQueue(name="q", capacity=1, drain_rate=0.0)

    def test_reset(self):
        queue = RequestQueue(name="q", capacity=1, drain_rate=1.0)
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        queue.reset()
        assert queue.total_enqueued == 0
        assert queue.total_stall_cycles == 0.0
        assert queue.enqueue(0.0) == pytest.approx(0.0)
