"""Shared machinery for the designs' texture paths.

A *texture path* answers one question for the pipeline model: given a
texture request issued by cluster ``c`` at cycle ``t``, when does the
filtered texture result arrive back at the shader, and what traffic and
unit activity did serving it cost?  The four designs differ exactly and
only in their texture paths.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.designs import DesignConfig
from repro.core.expansion import ExpandedFrame, ExpandedRequest
from repro.gpu.texunit import TextureUnit, TextureUnitActivity
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import HybridMemoryCube
from repro.memory.multicube import MultiCubeMemory
from repro.memory.packets import PacketSpec
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.sim.resources import BandwidthServer
from repro.texture.cache import CacheAccessResult, TextureCache
from repro.units import Bytes, Cycles, Radians


def make_hmc(config: DesignConfig) -> Union[HybridMemoryCube, MultiCubeMemory]:
    """Instantiate the HMC side of a design: one cube or several.

    Returns an object with the single-cube interface (``send_request``,
    ``send_response``, ``external_read``, ``internal_read``, aggregate
    byte/read counters, ``reset``).
    """
    if config.num_cubes == 1:
        return HybridMemoryCube(config.hmc)
    return MultiCubeMemory(config.hmc, num_cubes=config.num_cubes)


class ReadMergeWindow:
    """LRU window of recently issued line fetches, for merge coalescing.

    Memory controllers merge a read that matches a request already in
    their queue into one DRAM burst; the logic-layer texture pipelines
    additionally hold recently fetched texel lines in staging registers
    (the paper's Child Texel Consolidation buffer performs exactly this
    merge for child texels, section V-D).  The window maps a line address
    to the ready-time of its in-flight/just-completed fetch; a hit reuses
    that fetch instead of re-occupying a DRAM bank.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lines: "OrderedDict[int, float]" = OrderedDict()
        self.merged = 0

    def lookup(self, line: int) -> Optional[float]:
        """Ready time of a mergeable fetch of ``line``, or None."""
        if line in self._lines:
            self._lines.move_to_end(line)
            self.merged += 1
            return self._lines[line]
        return None

    def insert(self, line: int, ready: float) -> None:
        self._lines[line] = ready
        self._lines.move_to_end(line)
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)

    def reset(self) -> None:
        self._lines.clear()
        self.merged = 0


class MemoryInterface(abc.ABC):
    """Uniform cache-line read interface over GDDR5 or HMC-external."""

    @abc.abstractmethod
    def read_line(self, arrival: Cycles, address: int) -> float:
        """Fetch one cache line; return the data-delivery cycle."""

    @abc.abstractmethod
    def line_traffic_bytes(self) -> Bytes:
        """External bytes one line fill costs (request + response)."""


def _line_payload_bytes(packets: PacketSpec, compressed: bool) -> int:
    """Payload bytes one texel-line fill moves (section VIII option)."""
    if not compressed:
        return packets.cache_line_bytes
    from repro.texture.compression import compressed_line_bytes

    return int(compressed_line_bytes(packets.cache_line_bytes))


class Gddr5Interface(MemoryInterface):
    """Baseline: cache-line reads over the GDDR5 bus."""

    def __init__(self, memory: Gddr5Memory, packets: PacketSpec,
                 traffic: TrafficMeter, compressed: bool = False) -> None:
        self.memory = memory
        self.packets = packets
        self.traffic = traffic
        self.payload_bytes = _line_payload_bytes(packets, compressed)

    def read_line(self, arrival: Cycles, address: int) -> float:
        ready = self.memory.read(arrival, address, self.payload_bytes)
        self.traffic.add_external(TrafficClass.TEXTURE, self.line_traffic_bytes())
        return ready

    def line_traffic_bytes(self) -> Bytes:
        return float(
            self.packets.read_request_bytes
            + self.payload_bytes
            + self.packets.header_bytes
        )


class HmcExternalInterface(MemoryInterface):
    """B-PIM (and A-TFIM's isotropic reads): line reads over the links."""

    def __init__(self, hmc: HybridMemoryCube, packets: PacketSpec,
                 traffic: TrafficMeter, compressed: bool = False) -> None:
        self.hmc = hmc
        self.packets = packets
        self.traffic = traffic
        self.payload_bytes = _line_payload_bytes(packets, compressed)

    def read_line(self, arrival: Cycles, address: int) -> float:
        ready = self.hmc.external_read(
            arrival,
            address,
            self.packets.read_request_bytes,
            self.payload_bytes + self.packets.header_bytes,
        )
        self.traffic.add_external(TrafficClass.TEXTURE, self.line_traffic_bytes())
        return ready

    def line_traffic_bytes(self) -> Bytes:
        return float(
            self.packets.read_request_bytes
            + self.payload_bytes
            + self.packets.header_bytes
        )


@dataclass
class CacheHierarchyStats:
    """Aggregated L1/L2 outcomes for one frame."""

    l1_hits: int = 0
    l1_misses: int = 0
    l1_angle_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0

    @property
    def l1_accesses(self) -> int:
        return self.l1_hits + self.l1_misses + self.l1_angle_misses

    @property
    def l1_hit_rate(self) -> float:
        if self.l1_accesses == 0:
            return 0.0
        return self.l1_hits / self.l1_accesses


class CacheHierarchy:
    """Per-cluster L1s over a shared L2, with an L2 port resource.

    Timing: an L1 hit is free (folded into the texture unit's pipeline
    depth); an L1 miss filled from L2 pays the L2 latency and occupies the
    L2 port for one line; an L2 miss goes to memory.
    """

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        gpu = config.gpu
        self.config = config
        self.l1 = [
            TextureCache(gpu.l1_cache, name=f"l1.{cluster}")
            for cluster in range(gpu.num_clusters)
        ]
        self.l2 = TextureCache(gpu.l2_cache, name="l2")
        self.l2_port = BandwidthServer(
            name="l2.port",
            # The L2 is banked: it can deliver several lines per cycle in
            # aggregate (4 here), matching the fill bandwidth a 16-cluster
            # GPU needs so the shared L2 is not an artificial bottleneck.
            bytes_per_cycle=4.0 * gpu.l2_cache.line_bytes,
            latency=gpu.l2_latency_cycles,
        )
        self.line_bytes = gpu.l1_cache.line_bytes

    def lookup(
        self,
        cluster: int,
        arrival: Cycles,
        address: int,
        memory: MemoryInterface,
        angle: Optional[float] = None,
        angle_threshold: Optional[Radians] = None,
    ) -> float:
        """Serve one line through L1 -> L2 -> memory; return ready time.

        Angle arguments enable A-TFIM's angle-tagged reuse check; an
        angle mismatch anywhere forces a memory-path recalculation, which
        the A-TFIM path routes through the HMC instead of this method
        (it calls :meth:`probe` first), so plain lookups here never see
        angle misses.
        """
        result = self.l1[cluster].lookup(address, angle, angle_threshold)
        if result is CacheAccessResult.HIT:
            return arrival
        l2_result = self.l2.lookup(address, angle, angle_threshold)
        if l2_result is CacheAccessResult.HIT:
            return self.l2_port.access(arrival, self.line_bytes)
        return memory.read_line(arrival, address)

    def probe(
        self,
        cluster: int,
        address: int,
        angle: Optional[float] = None,
        angle_threshold: Optional[Radians] = None,
    ) -> CacheAccessResult:
        """Classify an access (updating cache state) without timing.

        Used by the A-TFIM path, which needs to know the outcome first to
        decide whether the HMC must recalculate; the timing of the chosen
        path is then charged separately.
        """
        result = self.l1[cluster].lookup(address, angle, angle_threshold)
        if result is CacheAccessResult.HIT:
            return CacheAccessResult.HIT
        if result is CacheAccessResult.ANGLE_MISS:
            # A stale-angle line must be recalculated regardless of L2;
            # refresh the L2 copy's angle tag as well.
            self.l2.lookup(address, angle, angle_threshold)
            return CacheAccessResult.ANGLE_MISS
        l2_result = self.l2.lookup(address, angle, angle_threshold)
        if l2_result is CacheAccessResult.HIT:
            return CacheAccessResult.HIT
        if l2_result is CacheAccessResult.ANGLE_MISS:
            return CacheAccessResult.ANGLE_MISS
        return CacheAccessResult.MISS

    def l2_fill_time(self, arrival: Cycles) -> float:
        """Timing of an L1 miss satisfied by the L2."""
        return self.l2_port.access(arrival, self.line_bytes)

    def stats(self) -> CacheHierarchyStats:
        aggregated = CacheHierarchyStats()
        for cache in self.l1:
            aggregated.l1_hits += cache.hits
            aggregated.l1_misses += cache.misses
            aggregated.l1_angle_misses += cache.angle_misses
        aggregated.l2_hits = self.l2.hits
        aggregated.l2_misses = self.l2.misses + self.l2.angle_misses
        return aggregated

    def reset_for_measurement(self) -> None:
        """Zero counters and the L2 port clock; keep cache contents."""
        for cache in self.l1:
            cache.reset_counters()
        self.l2.reset_counters()
        self.l2_port.reset()


@dataclass
class PathActivity:
    """Energy-relevant activity of one texture path for one frame."""

    gpu_texture: TextureUnitActivity = field(default_factory=TextureUnitActivity)
    memory_texture: TextureUnitActivity = field(default_factory=TextureUnitActivity)
    l1_accesses: int = 0
    l2_accesses: int = 0
    parent_recalculations: int = 0
    parent_reuses: int = 0
    child_texels_generated: int = 0
    child_lines_fetched: int = 0


class ReplaySession:
    """Per-replay serving context for the batched scheduler.

    Created by :meth:`TexturePath.begin_replay` with the frame's
    :class:`~repro.core.expansion.ExpandedFrame`.  The scheduler calls
    :meth:`serve_chunk` once per ready timestamp (clusters ascending, the
    scalar heap's pop order) and :meth:`finish` once at drain time,
    before any counters are read.

    The base implementation builds each request's
    :class:`~repro.core.expansion.ExpandedRequest` and delegates to the
    path's scalar :meth:`TexturePath.serve` -- the correctness fallback.
    Every design's path overrides it with a session that reads the
    frame's arrays by request index instead; overrides must keep the
    arithmetic bit-identical to the scalar path (the replay parity tests
    compare the two schedulers end to end).
    """

    def __init__(self, path: "TexturePath", frame: ExpandedFrame) -> None:
        self.path = path
        self.frame = frame

    def serve_one(self, cluster: int, issue: float, index: int) -> float:
        """Serve the single request at ``index`` issuing at ``issue``.

        The batched scheduler's rounds are almost always singletons
        (cluster clocks drift apart within a few cycles), so this is
        its hot entry point; :meth:`serve_chunk` handles the rare
        multi-cluster rounds.  Both must produce the identical scalar
        service sequence.
        """
        return self.path.serve(cluster, issue, self.frame[index])

    def serve_chunk(
        self, clusters: Sequence[int], issue: float, indices: Sequence[int]
    ) -> List[float]:
        """Serve the requests at ``indices``, all issuing at ``issue``."""
        serve_one = self.serve_one
        return [
            serve_one(cluster, issue, index)
            for cluster, index in zip(clusters, indices)
        ]

    def finish(self) -> None:
        """Flush any locally accumulated counters back to the path."""


class TexturePath(abc.ABC):
    """Interface every design's texture path implements."""

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        self.config = config
        self.traffic = traffic

    @abc.abstractmethod
    def serve(self, cluster: int, issue: float, expanded: ExpandedRequest) -> float:
        """Serve one request; return the completion cycle at the shader."""

    def begin_replay(self, frame: ExpandedFrame) -> ReplaySession:
        """Open a serving session for one replay of ``frame``.

        The batched scheduler serves every request of a replay through
        one session, letting path implementations precompute per-request
        columns (texel counts, stage occupancies, cache set/tag address
        math) from the frame's arrays and keep hot counters in locals
        until :meth:`ReplaySession.finish`.
        """
        return ReplaySession(self, frame)

    @abc.abstractmethod
    def activity(self) -> PathActivity:
        """Energy-relevant activity accumulated so far."""

    @abc.abstractmethod
    def reset_for_measurement(self) -> None:
        """Reset all timing state and counters, keeping cache contents.

        Called between the warm-up replay and the measured replay: the
        measured pass then sees steady-state caches (as a long-running
        game would) with fresh resource clocks and statistics.
        """

    def cache_stats(self) -> CacheHierarchyStats:
        """Cache outcomes (zeroed for cache-less paths like S-TFIM)."""
        return CacheHierarchyStats()

    def stat_group(self, name: str = "path") -> "StatGroup":
        """Snapshot of this path's filter-stage and cache counters.

        The base implementation covers what every design reports
        (texture-unit activity and the cache hierarchy); subclasses
        adopt their memory model's group (GDDR5 bus counters, HMC link
        and vault-service counters) and design-specific stages on top.
        Read at frame drain time by :mod:`repro.obs.snapshot` -- nothing
        here runs during request service.
        """
        from repro.sim.stats import StatGroup

        group = StatGroup(name)
        activity = self.activity()
        gpu = group.child("gpu_texture_units")
        gpu.counter("requests").add(activity.gpu_texture.requests)
        gpu.counter("address_ops").add(activity.gpu_texture.address_ops)
        gpu.counter("filter_ops").add(activity.gpu_texture.filter_ops)
        mtu = group.child("memory_texture_units")
        mtu.counter("requests").add(activity.memory_texture.requests)
        mtu.counter("address_ops").add(activity.memory_texture.address_ops)
        mtu.counter("filter_ops").add(activity.memory_texture.filter_ops)
        stats = self.cache_stats()
        caches = group.child("caches")
        caches.counter("l1_hits").add(stats.l1_hits)
        caches.counter("l1_misses").add(stats.l1_misses)
        caches.counter("l1_angle_misses").add(stats.l1_angle_misses)
        caches.counter("l2_hits").add(stats.l2_hits)
        caches.counter("l2_misses").add(stats.l2_misses)
        return group
