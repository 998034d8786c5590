"""Tests for shared path machinery: merge windows and cache hierarchy."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.designs import Design, DesignConfig
from repro.core.paths import CacheHierarchy, MergeWindowReplay, ReadMergeWindow
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import HybridMemoryCube
from repro.memory.packets import PacketSpec
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.texture.cache import CacheAccessResult
from tests import reference
from tests.conftest import NO_SHRINK
from tests.reference import (
    Gddr5Interface,
    HmcExternalInterface,
    lookup,
    probe,
)


class Reads:
    """Reads through one window's replay form, each ``(line, arrival)``
    given with the ready time its fetch would have: ``fetched`` logs the
    lines that missed the window and were fetched."""

    def __init__(self, window, ready):
        self.ready = ready
        self.fetched = []
        self.replay = MergeWindowReplay([window], self.fetch)

    def fetch(self, arrival, line):
        self.fetched.append(line)
        return self.ready[line]

    def __call__(self, line, arrival=0.0):
        return self.replay.read(0, arrival, line)


class TestReadMergeWindow:
    def test_miss_then_merge(self):
        window = ReadMergeWindow(capacity=4)
        read = Reads(window, {64: 10.0})
        assert read(64) == 10.0
        assert read.fetched == [64]
        assert read(64) == 10.0
        assert read.fetched == [64]
        read.replay.flush()
        assert window.merged == 1

    def test_lru_eviction(self):
        window = ReadMergeWindow(capacity=2)
        read = Reads(window, {0: 1.0, 64: 2.0, 128: 3.0})
        read(0)
        read(64)
        read(128)  # evicts 0
        assert read(64) == 2.0
        assert read.fetched == [0, 64, 128]
        read(0)
        assert read.fetched[-1] == 0

    def test_lookup_refreshes_lru(self):
        window = ReadMergeWindow(capacity=2)
        read = Reads(window, {0: 1.0, 64: 2.0, 128: 3.0})
        read(0)
        read(64)
        read(0)
        read(128)  # evicts 64, not 0
        assert read(0) == 1.0
        assert read.fetched == [0, 64, 128]
        read(64)
        assert read.fetched[-1] == 64

    def test_reset(self):
        window = ReadMergeWindow()
        read = Reads(window, {0: 1.0})
        read(0)
        read(0)
        read.replay.flush()
        window.reset()
        assert window.merged == 0
        read = Reads(window, {0: 1.0})
        read(0)
        assert read.fetched == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadMergeWindow(capacity=0)

    @settings(NO_SHRINK, max_examples=200)
    @given(capacities=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           data=st.data())
    def test_matches_the_oracle(self, capacities, data):
        """Each read against the oracle's lookup, then fetch and insert on
        a miss: the same ready times and fetches, and after ``flush()``
        the same windows, entries in LRU order and merge counts."""
        reads = data.draw(st.lists(
            st.tuples(st.integers(0, len(capacities) - 1),
                      st.floats(0, 100), st.integers(0, 7)),
            max_size=60,
        ))
        oracle, replayed = ([ReadMergeWindow(capacity)
                             for capacity in capacities] for _ in range(2))
        fetched = []

        def fetch(arrival, line):
            fetched.append(line)
            return arrival + 10.0 + line

        windows = MergeWindowReplay(replayed, fetch)
        expected_fetches = []
        for index, arrival, line in reads:
            merged = reference.window_lookup(oracle[index], line)
            if merged is not None:
                expected = max(arrival, merged)
            else:
                expected = arrival + 10.0 + line
                expected_fetches.append(line)
                reference.window_insert(oracle[index], line, expected)
            assert windows.read(index, arrival, line) == expected
        windows.flush()
        assert fetched == expected_fetches
        assert ([(list(window._lines.items()), window.merged)
                 for window in replayed]
                == [(list(window._lines.items()), window.merged)
                    for window in oracle])


class TestMemoryInterfaces:
    def test_gddr5_interface_accounts_traffic(self):
        traffic = TrafficMeter()
        interface = Gddr5Interface(Gddr5Memory(), PacketSpec(), traffic)
        interface.read_line(0.0, 0)
        assert traffic.external_texture == interface.line_traffic_bytes()
        assert interface.line_traffic_bytes() == 96.0

    def test_hmc_interface_accounts_traffic(self):
        traffic = TrafficMeter()
        interface = HmcExternalInterface(HybridMemoryCube(), PacketSpec(), traffic)
        interface.read_line(0.0, 0)
        assert traffic.external_texture == 96.0


class TestCacheHierarchy:
    """The cache hierarchy's state and counters, driven through the
    scalar references' line lookup and parent probe."""

    def make(self):
        config = DesignConfig(design=Design.BASELINE)
        traffic = TrafficMeter()
        hierarchy = CacheHierarchy(config, traffic)
        memory = Gddr5Interface(Gddr5Memory(), PacketSpec(), traffic)
        return hierarchy, memory, traffic

    def test_miss_goes_to_memory_once(self):
        hierarchy, memory, traffic = self.make()
        lookup(hierarchy, 0, 0.0, 0, memory)
        first_bytes = traffic.external_texture
        lookup(hierarchy, 0, 0.0, 0, memory)
        assert traffic.external_texture == first_bytes  # L1 hit, no refetch

    def test_l2_serves_other_clusters(self):
        hierarchy, memory, traffic = self.make()
        lookup(hierarchy, 0, 0.0, 0, memory)     # cluster 0 fills L1+L2
        bytes_after_fill = traffic.external_texture
        lookup(hierarchy, 1, 0.0, 0, memory)     # cluster 1: L1 miss, L2 hit
        assert traffic.external_texture == bytes_after_fill
        stats = hierarchy.stats()
        assert stats.l2_hits >= 1

    def test_probe_classifies_without_timing(self):
        hierarchy, _, _ = self.make()
        assert probe(hierarchy, 0, 0) is CacheAccessResult.MISS
        assert probe(hierarchy, 0, 0) is CacheAccessResult.HIT

    def test_probe_angle_miss_forces_recalculation(self):
        hierarchy, _, _ = self.make()
        threshold = 0.01 * math.pi
        probe(hierarchy, 0, 0, angle=0.1, angle_threshold=threshold)
        result = probe(hierarchy, 0, 0, angle=1.0, angle_threshold=threshold)
        assert result is CacheAccessResult.ANGLE_MISS

    def test_reset_for_measurement_keeps_contents(self):
        hierarchy, memory, traffic = self.make()
        lookup(hierarchy, 0, 0.0, 0, memory)
        hierarchy.reset_for_measurement()
        stats_before = hierarchy.stats()
        assert stats_before.l1_accesses == 0
        # Contents survived: the next access hits.
        assert probe(hierarchy, 0, 0) is CacheAccessResult.HIT
