"""Property-based tests for the resource-occupancy servers' replay forms.

Every property drives the form a replay session runs:
:class:`~repro.memory.replay.ServerReplay`,
:class:`~repro.core.paths.UnitReplayState` and
:class:`~repro.core.paths.QueueReplay`.  The ``matches_the_oracle``
properties also serve the same accesses on a twin of the resources
through the per-access oracle in ``tests/reference.py`` and demand the
same bits: every return value and, after ``flush()``, every field.
"""

from hypothesis import given, settings, strategies as st

from repro.core.paths import QueueReplay, UnitReplayState
from repro.gpu.config import TextureUnitConfig
from repro.gpu.texunit import TextureUnit
from repro.memory.replay import ServerReplay
from repro.sim.resources import BandwidthServer, RequestQueue
from tests import reference
from tests.conftest import NO_SHRINK
from tests.gpu.test_replay_batch import server_state, unit_state
from tests.sim.test_resources import served

sizes = st.lists(st.integers(1, 4096), min_size=1, max_size=60)


@st.composite
def server_cases(draw):
    """A few servers and accesses to them, in no particular time order;
    zero-byte accesses included."""
    count = draw(st.integers(1, 3))
    servers = [
        (draw(st.sampled_from([1.0, 16.0, 21.3, 320.0])),
         draw(st.floats(0, 64)))
        for _ in range(count)
    ]
    accesses = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.floats(0, 200),
                  st.integers(0, 4096)),
        max_size=60,
    ))
    return servers, accesses


class TestBandwidthServerProperties:
    @settings(NO_SHRINK, max_examples=100)
    @given(sizes=sizes)
    def test_throughput_never_exceeds_rate(self, sizes):
        """Total service time is at least total bytes / rate."""
        server = BandwidthServer(name="s", bytes_per_cycle=32.0, latency=0.0)
        last_ready = served(server, *((0.0, nbytes) for nbytes in sizes))[-1]
        assert last_ready >= sum(sizes) / 32.0 - 1e-9

    @settings(NO_SHRINK, max_examples=100)
    @given(sizes=sizes)
    def test_completions_monotone_for_simultaneous_arrivals(self, sizes):
        server = BandwidthServer(name="s", bytes_per_cycle=16.0, latency=5.0)
        completions = served(server, *((0.0, nbytes) for nbytes in sizes))
        assert completions == sorted(completions)

    @settings(NO_SHRINK, max_examples=100)
    @given(sizes=sizes, latency=st.floats(0, 100))
    def test_ready_never_before_arrival_plus_minimum(self, sizes, latency):
        server = BandwidthServer(name="s", bytes_per_cycle=64.0, latency=latency)
        accesses = [(float(index), nbytes) for index, nbytes in enumerate(sizes)]
        for (arrival, nbytes), ready in zip(accesses,
                                            served(server, *accesses)):
            assert ready >= arrival + nbytes / 64.0 + latency - 1e-9

    @settings(NO_SHRINK, max_examples=50)
    @given(sizes=sizes)
    def test_busy_cycles_equal_work(self, sizes):
        server = BandwidthServer(name="s", bytes_per_cycle=8.0)
        served(server, *((0.0, nbytes) for nbytes in sizes))
        assert server.busy_cycles == sum(sizes) / 8.0
        assert server.total_bytes == float(sum(sizes))
        assert server.total_requests == len(sizes)

    @settings(NO_SHRINK, max_examples=200)
    @given(case=server_cases())
    def test_matches_the_oracle(self, case):
        specs, accesses = case
        oracle, replayed = (
            [BandwidthServer(name=f"s{index}", bytes_per_cycle=rate,
                             latency=latency)
             for index, (rate, latency) in enumerate(specs)]
            for _ in range(2)
        )
        replay = ServerReplay(replayed)
        for index, arrival, nbytes in accesses:
            assert replay.access(index, arrival, nbytes) == (
                reference.server_access(oracle[index], arrival, nbytes))
        replay.flush()
        assert ([server_state(server) for server in replayed]
                == [server_state(server) for server in oracle])


@st.composite
def unit_cases(draw):
    """A few texture units and requests to them: a stage, an arrival and
    a texel count, zero included."""
    count = draw(st.integers(1, 3))
    configs = [
        TextureUnitConfig(address_alus=draw(st.sampled_from([1, 4, 16])),
                          filter_alus=draw(st.sampled_from([1, 8, 16])),
                          pipeline_depth=draw(st.sampled_from([0.0, 8.0])))
        for _ in range(count)
    ]
    requests = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.booleans(),
                  st.floats(0, 200), st.integers(0, 128)),
        max_size=60,
    ))
    return configs, requests


class TestThroughputUnitProperties:
    @settings(NO_SHRINK, max_examples=100)
    @given(ops=st.lists(st.integers(1, 64), min_size=1, max_size=40))
    def test_issue_slots_never_overlap(self, ops):
        unit = TextureUnit("u", TextureUnitConfig(address_alus=4,
                                                  pipeline_depth=2.0))
        state = UnitReplayState([unit])
        previous_issue_end = 0.0
        for count in ops:
            completion = state.generate_addresses(0, 0.0, count)
            issue_end = completion - unit.address_stage.pipeline_depth
            assert issue_end >= previous_issue_end - 1e-9
            previous_issue_end = issue_end
        state.flush()
        assert unit.address_stage.total_ops == sum(ops)

    @settings(NO_SHRINK, max_examples=200)
    @given(case=unit_cases())
    def test_matches_the_oracle(self, case):
        configs, requests = case
        oracle, replayed = (
            [TextureUnit(f"u{index}", config)
             for index, config in enumerate(configs)]
            for _ in range(2)
        )
        state = UnitReplayState(replayed)
        for index, filtering, arrival, texels in requests:
            if filtering:
                done = state.filter_texels(index, arrival, texels)
                expected = reference.filter_texels(oracle[index], arrival,
                                                   texels)
            else:
                state.requests[index] += 1
                reference.note_request(oracle[index])
                done = state.generate_addresses(index, arrival, texels)
                expected = reference.generate_addresses(oracle[index],
                                                        arrival, texels)
            assert done == expected
        state.flush()
        assert ([unit_state(unit) for unit in replayed]
                == [unit_state(unit) for unit in oracle])


def queue_state(queue):
    return (queue._occupancy_free_at, queue.total_enqueued,
            queue.total_stall_cycles)


class TestRequestQueueProperties:
    @settings(NO_SHRINK, max_examples=100)
    @given(
        arrivals=st.lists(st.floats(0, 50), min_size=2, max_size=60),
        capacity=st.integers(1, 16),
    )
    def test_admission_never_precedes_arrival(self, arrivals, capacity):
        queue = QueueReplay(
            [RequestQueue(name="q", capacity=capacity, drain_rate=1.0)]
        )
        for arrival in sorted(arrivals):
            admitted = queue.enqueue(0, arrival)
            assert admitted >= arrival - 1e-9

    @settings(NO_SHRINK, max_examples=100)
    @given(count=st.integers(1, 100), capacity=st.integers(1, 8))
    def test_burst_admission_rate_bounded_by_drain(self, count, capacity):
        """A burst of simultaneous arrivals is admitted no faster than
        the drain rate once the buffer fills."""
        queue = QueueReplay(
            [RequestQueue(name="q", capacity=capacity, drain_rate=1.0)]
        )
        last_admitted = 0.0
        for _ in range(count):
            last_admitted = queue.enqueue(0, 0.0)
        expected_minimum = max(0, count - capacity)
        assert last_admitted >= expected_minimum - 1e-9

    @settings(NO_SHRINK, max_examples=200)
    @given(
        specs=st.lists(st.tuples(st.integers(1, 16),
                                 st.sampled_from([0.5, 1.0, 3.0, 16.0])),
                       min_size=1, max_size=3),
        data=st.data(),
    )
    def test_matches_the_oracle(self, specs, data):
        oracle, replayed = (
            [RequestQueue(name=f"q{index}", capacity=capacity,
                          drain_rate=rate)
             for index, (capacity, rate) in enumerate(specs)]
            for _ in range(2)
        )
        arrivals = data.draw(st.lists(
            st.tuples(st.integers(0, len(specs) - 1), st.floats(0, 50)),
            max_size=60,
        ))
        queues = QueueReplay(replayed)
        for index, arrival in arrivals:
            assert queues.enqueue(index, arrival) == (
                reference.enqueue(oracle[index], arrival))
        queues.flush()
        assert ([queue_state(queue) for queue in replayed]
                == [queue_state(queue) for queue in oracle])
