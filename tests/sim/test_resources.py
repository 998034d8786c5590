"""Tests for the resource-occupancy servers, through their replay forms.

Each resource is served through the form a replay session runs --
:class:`~repro.memory.replay.ServerReplay` for a bandwidth server,
:class:`~repro.core.paths.UnitReplayState` for the stages of a texture
unit and :class:`~repro.core.paths.QueueReplay` for a request queue --
and read back from the resource after ``flush()``.  A per-access check
that the sessions make once per replay is tested on the per-access
oracle in ``tests/reference.py``.
"""

import pytest

from repro.core.paths import QueueReplay, UnitReplayState
from repro.gpu.config import TextureUnitConfig
from repro.gpu.texunit import TextureUnit
from repro.memory.replay import ServerReplay
from repro.sim.resources import BandwidthServer, RequestQueue, ThroughputUnit
from tests import reference


def served(server, *accesses):
    """Serve ``(arrival, nbytes)`` accesses on ``server`` through its
    replay form; return their ready times."""
    replay = ServerReplay([server])
    ready = [replay.access(0, arrival, nbytes) for arrival, nbytes in accesses]
    replay.flush()
    return ready


def stage_unit(ops_per_cycle, pipeline_depth):
    """A texture unit whose address stage issues ``ops_per_cycle``
    operations a cycle through a pipeline ``pipeline_depth`` deep."""
    return TextureUnit("tu", TextureUnitConfig(
        address_alus=ops_per_cycle, pipeline_depth=pipeline_depth
    ))


def issued(unit, *issues):
    """Issue ``(arrival, ops)`` on ``unit``'s address stage through the
    units' replay form; return the completion times."""
    state = UnitReplayState([unit])
    done = [state.generate_addresses(0, arrival, ops)
            for arrival, ops in issues]
    state.flush()
    return done


def admitted(queue, *arrivals):
    """Admit one request per arrival to ``queue`` through its replay
    form; return the admission cycles."""
    replay = QueueReplay([queue])
    times = [replay.enqueue(0, arrival) for arrival in arrivals]
    replay.flush()
    return times


class TestBandwidthServer:
    def test_single_access_pays_occupancy_plus_latency(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=10.0)
        (ready,) = served(server, (0.0, 128))
        assert ready == pytest.approx(2.0 + 10.0)

    def test_back_to_back_accesses_queue(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=0.0)
        first, second = served(server, (0.0, 64), (0.0, 64))
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_idle_gap_not_charged(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=0.0)
        _, ready = served(server, (0.0, 64), (100.0, 64))
        assert ready == pytest.approx(101.0)

    def test_latency_is_pipelined_not_occupancy(self):
        # Two accesses: the second starts when the first's *occupancy*
        # ends, not when its latency ends.
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=50.0)
        first, second = served(server, (0.0, 64), (0.0, 64))
        assert first == pytest.approx(51.0)
        assert second == pytest.approx(52.0)

    def test_zero_byte_access_pays_only_latency(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0, latency=7.0)
        assert served(server, (3.0, 0)) == [pytest.approx(10.0)]

    def test_total_accounting(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=32.0)
        served(server, (0.0, 64), (0.0, 32))
        assert server.total_bytes == 96.0
        assert server.total_requests == 2
        assert server.busy_cycles == pytest.approx(3.0)

    def test_negative_size_rejected(self):
        """Sessions check their constant sizes once
        (``require_positive_sizes``); the oracle checks each access."""
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0)
        with pytest.raises(ValueError):
            reference.server_access(server, 0.0, -1)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            BandwidthServer(name="bad", bytes_per_cycle=0.0)

    def test_reset(self):
        server = BandwidthServer(name="bus", bytes_per_cycle=64.0)
        served(server, (0.0, 128))
        server.reset()
        assert server.total_bytes == 0.0
        assert server.next_free == 0.0


class TestThroughputUnit:
    def test_issue_rate_limits_throughput(self):
        unit = stage_unit(4, pipeline_depth=0.0)
        first, second = issued(unit, (0.0, 8), (0.0, 4))
        assert first == pytest.approx(2.0)
        assert second == pytest.approx(3.0)

    def test_pipeline_depth_added_to_completion(self):
        unit = stage_unit(1, pipeline_depth=5.0)
        assert issued(unit, (0.0, 1)) == [pytest.approx(6.0)]

    def test_zero_ops_is_noop_with_depth(self):
        """A texture unit passes zero texels through without issuing
        (``tests/gpu/test_texunit.py``), so only the oracle issues zero
        operations."""
        unit = ThroughputUnit(name="alu", ops_per_cycle=2.0, pipeline_depth=3.0)
        assert reference.stage_issue(unit, 10.0, ops=0) == pytest.approx(13.0)
        assert unit.next_issue == 10.0

    def test_op_accounting(self):
        unit = stage_unit(2, pipeline_depth=1.0)
        issued(unit, (0.0, 10))
        assert unit.address_stage.total_ops == 10
        assert unit.address_stage.busy_cycles == pytest.approx(5.0)

    def test_negative_ops_rejected(self):
        unit = ThroughputUnit(name="alu", ops_per_cycle=1.0)
        with pytest.raises(ValueError):
            reference.stage_issue(unit, 0.0, ops=-1)

    def test_reset(self):
        unit = stage_unit(1, pipeline_depth=1.0)
        issued(unit, (0.0, 4))
        unit.address_stage.reset()
        assert unit.address_stage.total_ops == 0
        assert unit.address_stage.next_issue == 0.0


class TestRequestQueue:
    def test_admission_immediate_when_empty(self):
        queue = RequestQueue(name="q", capacity=4, drain_rate=1.0)
        assert admitted(queue, 5.0) == [pytest.approx(5.0)]

    def test_backpressure_when_full(self):
        queue = RequestQueue(name="q", capacity=2, drain_rate=1.0)
        # The third arrival must wait for the head to drain.
        *_, third = admitted(queue, 0.0, 0.0, 0.0)
        assert third > 0.0

    def test_stall_cycles_accumulate(self):
        queue = RequestQueue(name="q", capacity=1, drain_rate=1.0)
        admitted(queue, 0.0, 0.0, 0.0)
        assert queue.total_stall_cycles > 0.0
        assert queue.total_enqueued == 3

    def test_no_stall_when_arrivals_spread_out(self):
        queue = RequestQueue(name="q", capacity=4, drain_rate=1.0)
        arrivals = [float(cycle * 2) for cycle in range(10)]
        assert admitted(queue, *arrivals) == pytest.approx(arrivals)
        assert queue.total_stall_cycles == 0.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            RequestQueue(name="q", capacity=0)
        with pytest.raises(ValueError):
            RequestQueue(name="q", capacity=1, drain_rate=0.0)

    def test_reset(self):
        queue = RequestQueue(name="q", capacity=1, drain_rate=1.0)
        admitted(queue, 0.0, 0.0)
        queue.reset()
        assert queue.total_enqueued == 0
        assert queue.total_stall_cycles == 0.0
        assert admitted(queue, 0.0) == [pytest.approx(0.0)]
