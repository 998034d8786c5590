"""Tests for shared path machinery: merge windows and cache hierarchy."""

import math

import pytest

from repro.core.designs import Design, DesignConfig
from repro.core.paths import CacheHierarchy, ReadMergeWindow
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import HybridMemoryCube
from repro.memory.packets import PacketSpec
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.texture.cache import CacheAccessResult
from tests.reference import (
    Gddr5Interface,
    HmcExternalInterface,
    lookup,
    probe,
)


class TestReadMergeWindow:
    def test_miss_then_merge(self):
        window = ReadMergeWindow(capacity=4)
        assert window.lookup(64) is None
        window.insert(64, ready=10.0)
        assert window.lookup(64) == 10.0
        assert window.merged == 1

    def test_lru_eviction(self):
        window = ReadMergeWindow(capacity=2)
        window.insert(0, 1.0)
        window.insert(64, 2.0)
        window.insert(128, 3.0)  # evicts 0
        assert window.lookup(0) is None
        assert window.lookup(64) == 2.0

    def test_lookup_refreshes_lru(self):
        window = ReadMergeWindow(capacity=2)
        window.insert(0, 1.0)
        window.insert(64, 2.0)
        window.lookup(0)
        window.insert(128, 3.0)  # evicts 64, not 0
        assert window.lookup(0) == 1.0
        assert window.lookup(64) is None

    def test_reset(self):
        window = ReadMergeWindow()
        window.insert(0, 1.0)
        window.lookup(0)
        window.reset()
        assert window.lookup(0) is None
        assert window.merged == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadMergeWindow(capacity=0)


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
