"""Scalar references that the parity tests hold the production code to.

Each layer of the simulator has one production implementation, batched
or inlined for speed.  This module keeps the plain one-at-a-time form of
each, with the same arithmetic, so a parity test can demand bit-identical
results:

* the per-access timing of each contended resource, one function call
  per access over the component's state: :func:`server_access` (a
  :class:`~repro.sim.resources.BandwidthServer`), :func:`stage_issue`,
  :func:`generate_addresses` and :func:`filter_texels` (a texture
  unit's stages), :func:`enqueue` (a request queue),
  :func:`window_lookup` and :func:`window_insert` (a read-merge
  window), :func:`access_row`, :func:`locate` and :func:`device_access`
  (DRAM banks), :func:`gddr5_read`, the cube's :func:`internal_read`,
  :func:`external_read`, :func:`send_request` and
  :func:`send_response`, and :func:`cache_lookup` (a texture cache).
  ``src/`` serves each resource only through its replay form
  (:mod:`repro.memory.replay`, :mod:`repro.core.paths`, and the L2
  inlined in the baseline/B-PIM and A-TFIM sessions); these functions
  are those forms' oracle;
* :func:`replay_texture_stream` -- the one-event-at-a-time heap
  scheduler, serving each request through its design's :func:`serve`;
* :func:`serve` -- one request through one design's texture path:
  texture-unit stages, L1 -> L2 -> memory :func:`lookup` (baseline and
  B-PIM, filling lines through a :class:`MemoryInterface`), the S-TFIM
  memory texture unit (:func:`serve_stfim`), or the A-TFIM angle-tagged
  :func:`probe` and :func:`offload`, each through the per-access
  functions above;
* :func:`cold_run` -- a frame replayed once, from a freshly built path;
* :class:`ScalarRasterizer` -- the per-pixel fragment emitter, emitting
  :class:`RasterFragment` rows, and the per-fragment footprint;
* :class:`ScalarRenderer` -- per-request shading in all four sampling
  modes, with A-TFIM's parent reuse in :class:`AngleTaggedParentStore`,
  and the sequential per-fragment framebuffer write;
* :func:`reuse_producers` -- A-TFIM's reuse decision over a lookup
  stream, one lookup at a time through a dict.

It also holds the row-to-column helpers for hand-built inputs:
:func:`trace_from_requests` and :func:`request_batch`.
"""

from __future__ import annotations

import abc
import heapq
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.atfim import AtfimPath
from repro.core.baseline import GpuFilteringPath
from repro.core.designs import DesignConfig
from repro.core.expansion import ExpandedRequest, RequestExpander
from repro.core.frontend import DesignRun, make_texture_path
from repro.core.paths import CacheHierarchy, ReadMergeWindow, TexturePath
from repro.core.stfim import StfimPath
from repro.gpu.pipeline import Expansion, GpuPipeline
from repro.gpu.texunit import TextureUnit
from repro.memory.dram import DramBank, DramDevice
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import VAULT_BLOCK_BYTES, HmcVault, HybridMemoryCube
from repro.memory.packets import PacketSpec
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import Rasterizer, RasterStats
from repro.render.renderer import Renderer, RenderOutput, SamplingMode
from repro.render.scene import Scene
from repro.sim.latency import LatencyHistogram
from repro.sim.resources import BandwidthServer, RequestQueue, ThroughputUnit
from repro.texture.address import LINE_BYTES
from repro.texture.cache import CacheAccessResult, TextureCache
from repro.texture.batch import RequestBatch
from repro.texture.lod import (
    NO_ANGLE,
    FootprintBatch,
    SampleFootprint,
    angle_codes,
    camera_angle_from_normal,
    compute_footprint,
    threshold_steps,
)
from repro.texture.mipmap import MipmapChain
from repro.texture.requests import FragmentTrace, TextureRequest
from repro.texture.sampling import (
    anisotropic_first_sample,
    anisotropic_sample,
    filter_parent_texel,
    parent_texel_coords,
    trilinear_sample,
)
from repro.units import Bytes, Cycles, Ops, Radians


# ---------------------------------------------------------------------------
# Per-access timing: one call per access over a component's state.
# ---------------------------------------------------------------------------


def server_access(
    server: BandwidthServer, arrival: Cycles, nbytes: Bytes
) -> Cycles:
    """Serve ``nbytes`` arriving at ``arrival`` on ``server``; return the
    ready time.

    The ready time includes the fixed latency.  Zero-byte accesses are
    legal and only pay the latency (useful for pure-control messages).
    """
    if nbytes < 0:
        raise ValueError("negative transfer size")
    start = max(arrival, server._next_free)
    occupancy = nbytes / server.bytes_per_cycle
    server._next_free = Cycles(start + occupancy)
    server.total_bytes = Bytes(server.total_bytes + nbytes)
    server.total_requests += 1
    server.busy_cycles = Cycles(server.busy_cycles + occupancy)
    return Cycles(server._next_free + server.latency)


def stage_issue(
    stage: ThroughputUnit, arrival: Cycles, ops: Ops = Ops(1.0)
) -> Cycles:
    """Issue ``ops`` back-to-back operations on ``stage``; return the
    completion time."""
    if ops < 0:
        raise ValueError("negative op count")
    start = max(arrival, stage._next_issue)
    occupancy = ops / stage.ops_per_cycle
    stage._next_issue = Cycles(start + occupancy)
    stage.total_ops = Ops(stage.total_ops + int(ops))
    stage.busy_cycles = Cycles(stage.busy_cycles + occupancy)
    return Cycles(stage._next_issue + stage.pipeline_depth)


def generate_addresses(
    unit: TextureUnit, arrival: Cycles, num_texels: int
) -> Cycles:
    """Address-generation stage: one op per texel; returns done time."""
    if num_texels < 0:
        raise ValueError("negative texel count")
    unit.activity.address_ops = Ops(unit.activity.address_ops + num_texels)
    if num_texels == 0:
        return arrival
    return stage_issue(unit.address_stage, arrival, Ops(float(num_texels)))


def filter_texels(
    unit: TextureUnit, arrival: Cycles, num_texels: int
) -> Cycles:
    """Filtering stage: one op per texel; returns result-ready time."""
    if num_texels < 0:
        raise ValueError("negative texel count")
    unit.activity.filter_ops = Ops(unit.activity.filter_ops + num_texels)
    if num_texels == 0:
        return arrival
    return stage_issue(unit.filter_stage, arrival, Ops(float(num_texels)))


def note_request(unit: TextureUnit) -> None:
    unit.activity.requests += 1


def enqueue(queue: RequestQueue, arrival: Cycles) -> Cycles:
    """Admit one request to ``queue``; return the cycle at which it is
    admitted."""
    # The queue holds (free_at - t) * drain_rate entries at time t; a
    # new entry is admitted once at most capacity - 1 remain queued.
    buffered = Ops(float(queue.capacity - 1))
    earliest_slot = queue._occupancy_free_at - buffered / queue.drain_rate
    admitted = max(arrival, earliest_slot)
    stall = admitted - arrival
    queue._occupancy_free_at = Cycles(
        max(queue._occupancy_free_at, admitted) + Ops(1.0) / queue.drain_rate
    )
    queue.total_enqueued += 1
    queue.total_stall_cycles = Cycles(queue.total_stall_cycles + stall)
    return admitted


def window_lookup(window: ReadMergeWindow, line: int) -> Optional[float]:
    """Ready time of a mergeable fetch of ``line``, or None."""
    if line in window._lines:
        window._lines.move_to_end(line)
        window.merged += 1
        return window._lines[line]
    return None


def window_insert(window: ReadMergeWindow, line: int, ready: float) -> None:
    window._lines[line] = ready
    window._lines.move_to_end(line)
    if len(window._lines) > window.capacity:
        window._lines.popitem(last=False)


def access_row(bank: DramBank, arrival: Cycles, row: int) -> Cycles:
    """Access ``row`` of ``bank`` at ``arrival``; return data-ready time."""
    if row < 0:
        raise ValueError("negative row")
    start = max(arrival, bank._next_free)
    if row == bank.open_row:
        occupancy = bank.timing.row_hit_occupancy
        bank.row_hits += 1
    else:
        occupancy = bank.timing.row_miss_occupancy
        bank.row_misses += 1
        bank.open_row = row
    bank._next_free = start + occupancy
    bank.busy_cycles += occupancy
    return bank._next_free + bank.timing.column_access_cycles


def locate(device: DramDevice, address: int) -> Tuple[int, int]:
    """Map an address to (bank index, row index) in ``device``."""
    if address < 0:
        raise ValueError("negative address")
    stride = device.bank_interleave_bytes * device.interleave_step
    bank = (address // stride) % device.num_banks
    blocks_per_row = max(
        1, device.timing.row_bytes // device.bank_interleave_bytes
    )
    row = address // (stride * device.num_banks * blocks_per_row)
    return bank, row


def device_access(device: DramDevice, arrival: Cycles, address: int) -> Cycles:
    """Route an access to its bank; return data-ready time."""
    bank_index, row = locate(device, address)
    return access_row(device.banks[bank_index], arrival, row)


def channel_for(memory: Gddr5Memory, address: int) -> DramDevice:
    if address < 0:
        raise ValueError("negative address")
    index = (
        address // memory.config.channel_interleave_bytes
    ) % memory.config.num_channels
    return memory.channels[index]


def gddr5_read(
    memory: Gddr5Memory, arrival: Cycles, address: int, nbytes: Bytes
) -> Cycles:
    """Read ``nbytes`` at ``address``; return data-ready cycle."""
    if nbytes <= 0:
        raise ValueError("read size must be positive")
    memory.reads += 1
    bank_ready = device_access(channel_for(memory, address), arrival, address)
    bus_ready = server_access(memory.bus, arrival, nbytes)
    return max(bank_ready, bus_ready)


def vault_for(hmc: HybridMemoryCube, address: int) -> HmcVault:
    """The vault of ``address``: 256-byte blocks, round-robin."""
    if address < 0:
        raise ValueError("negative address")
    index = (address // VAULT_BLOCK_BYTES) % hmc.config.num_vaults
    return hmc.vaults[index]


def vault_access(
    vault: HmcVault, arrival: Cycles, address: int, nbytes: Bytes
) -> Cycles:
    """Serve an internal access; return data-ready cycle."""
    if nbytes <= 0:
        raise ValueError("access size must be positive")
    bank_ready = device_access(vault.device, arrival, address)
    tsv_ready = server_access(vault.tsv, arrival, nbytes)
    vault.accesses += 1
    latency = vault.config.vault_access_latency_cycles
    return max(bank_ready, tsv_ready) + latency


def external_read(
    hmc: HybridMemoryCube, arrival: Cycles, address: int,
    request_bytes: Bytes, response_bytes: Bytes,
) -> Cycles:
    """A read crossing the links; returns the response delivery cycle."""
    request_delivered = server_access(hmc.tx_link, arrival, request_bytes)
    data_ready = vault_access(
        vault_for(hmc, address), request_delivered, address, response_bytes
    )
    hmc.external_reads += 1
    return server_access(hmc.rx_link, data_ready, response_bytes)


def send_request(
    hmc: HybridMemoryCube, arrival: Cycles, nbytes: Bytes
) -> Cycles:
    """Ship a request package to the cube over the transmit link."""
    return server_access(hmc.tx_link, arrival, nbytes)


def send_response(
    hmc: HybridMemoryCube, arrival: Cycles, nbytes: Bytes
) -> Cycles:
    """Ship a response package from the cube over the receive link."""
    return server_access(hmc.rx_link, arrival, nbytes)


def internal_read(
    hmc: HybridMemoryCube, arrival: Cycles, address: int, nbytes: Bytes
) -> Cycles:
    """A logic-layer read; never touches the external links."""
    hmc.internal_reads += 1
    return vault_access(vault_for(hmc, address), arrival, address, nbytes)


def cache_set_and_tag(cache: TextureCache, address: int) -> Tuple[int, int]:
    """The set and tag of the line containing ``address``."""
    line_index = address // LINE_BYTES
    set_index = line_index % cache.config.num_sets
    tag = line_index // cache.config.num_sets
    return set_index, tag


def cache_lookup(
    cache: TextureCache,
    address: int,
    angle: Optional[float] = None,
    angle_threshold: Optional[Radians] = None,
) -> CacheAccessResult:
    """Access the line containing ``address``; fill on miss.

    Without angle arguments this is an ordinary cache access.  With
    both ``angle`` and ``angle_threshold`` given (radians), a tag hit
    whose stored code differs from the request's code by more than the
    threshold's step count counts as
    :attr:`CacheAccessResult.ANGLE_MISS`; the line is refilled with the
    new code (the recalculated parent texel replaces the stale one, per
    section V-C).  A line filled without an angle holds ``NO_ANGLE``,
    which every such comparison finds stale.
    """
    if address < 0:
        raise ValueError("negative address")
    set_index, tag = cache_set_and_tag(cache, address)
    cache_set = cache._sets.setdefault(set_index, OrderedDict())
    stored_angle = NO_ANGLE if angle is None else int(angle_codes(angle))

    stored = cache_set.get(tag)
    if stored is not None:
        if angle is not None and angle_threshold is not None:
            if abs(stored - stored_angle) > threshold_steps(angle_threshold):
                cache_set[tag] = stored_angle
                cache_set.move_to_end(tag)
                cache.angle_misses += 1
                return CacheAccessResult.ANGLE_MISS
        cache_set.move_to_end(tag)
        cache.hits += 1
        return CacheAccessResult.HIT

    if len(cache_set) >= cache.config.associativity:
        cache_set.popitem(last=False)  # evict LRU
    else:
        cache._cold_fills.setdefault(set_index, []).append(tag)
    cache_set[tag] = stored_angle
    cache.misses += 1
    return CacheAccessResult.MISS


def cache_contains(cache: TextureCache, address: int) -> bool:
    """Presence probe that does not disturb LRU state or counters."""
    set_index, tag = cache_set_and_tag(cache, address)
    cache_set = cache._sets.get(set_index)
    return cache_set is not None and tag in cache_set


def cache_contents(cache: TextureCache) -> Dict[int, List[Tuple[int, int]]]:
    """Every non-empty set's ``(tag, angle code)`` pairs, least recent
    first: what the parity tests compare between two caches."""
    contents = {}
    for set_index in range(cache.config.num_sets):
        tags, codes = cache.contents(set_index)
        if tags:
            contents[set_index] = list(zip(tags, codes))
    return contents


# ---------------------------------------------------------------------------
# Texture replay.
# ---------------------------------------------------------------------------


def replay_texture_stream(
    pipeline: GpuPipeline,
    trace: FragmentTrace,
    expanded: Expansion,
    path: TexturePath,
) -> Tuple[float, LatencyHistogram, List[int]]:
    """One-event-at-a-time heap replay of ``trace`` through ``path``.

    ``expanded`` is indexed by request: a list of per-request expansions
    or an :class:`~repro.core.expansion.ExpandedFrame`.
    """
    config = pipeline.config
    histogram = LatencyHistogram("texture_latency")
    depth = config.max_inflight_texture_requests
    makespan = 0.0
    _, per_cluster, fragments_per_cluster = pipeline._partition(trace)

    # Event-ordered replay: always serve the cluster whose next
    # request issues earliest, so shared resources (L2 port, links,
    # memory channels) observe arrivals in simulated-time order.
    cluster_clock = [0.0] * config.num_clusters
    cursor = [0] * config.num_clusters
    inflight: List[List[float]] = [[] for _ in range(config.num_clusters)]

    def next_issue(cluster: int) -> float:
        issue = cluster_clock[cluster]
        window = inflight[cluster]
        if len(window) >= depth and window[-depth] > issue:
            issue = window[-depth]
        return issue

    heap: List[Tuple[float, int]] = []
    for cluster in range(config.num_clusters):
        if per_cluster[cluster]:
            heapq.heappush(heap, (next_issue(cluster), cluster))

    while heap:
        issue, cluster = heapq.heappop(heap)
        current = next_issue(cluster)
        if current > issue:
            # Window state changed since this entry was pushed.
            heapq.heappush(heap, (current, cluster))
            continue
        expansion = expanded[per_cluster[cluster][cursor[cluster]]]
        cursor[cluster] += 1
        completion = serve(path, cluster, issue, expansion)
        if completion < issue:
            raise RuntimeError("texture path completed before issue")
        histogram.observe(completion - issue)
        window = inflight[cluster]
        window.append(completion)
        if len(window) > depth:
            del window[0]
        cluster_clock[cluster] = issue + 1.0
        if completion > makespan:
            makespan = completion
        if cursor[cluster] < len(per_cluster[cluster]):
            heapq.heappush(heap, (next_issue(cluster), cluster))

    return makespan, histogram, fragments_per_cluster


def cold_run(scene: Scene, trace: FragmentTrace,
             config: DesignConfig) -> DesignRun:
    """``trace`` simulated once, from a freshly built path: the cold
    replay that ``simulate_frame`` runs first (and measures where a warm
    start is inert), as ``bench/``'s traced pass replays it before its
    measured replay."""
    traffic = TrafficMeter()
    path = make_texture_path(config, traffic)
    frame = GpuPipeline(config.gpu).simulate_frame(
        trace=trace,
        expanded=RequestExpander(scene).expand_frame(
            trace, config.aniso_enabled
        ),
        path=path,
        traffic=traffic,
        num_vertices=scene.num_vertices,
        external_bytes_per_cycle=config.external_bytes_per_cycle,
    )
    path.release_columns()
    return DesignRun(config=config, frame=frame, path=path)


def serve(
    path: TexturePath, cluster: int, issue: float, expanded: ExpandedRequest
) -> float:
    """Serve one request; return the completion cycle at the shader."""
    if isinstance(path, GpuFilteringPath):
        return _serve_gpu_filtering(path, cluster, issue, expanded)
    if isinstance(path, StfimPath):
        return serve_stfim(
            path, cluster, issue, expanded.num_conventional_texels,
            expanded.conventional_lines,
        )
    if isinstance(path, AtfimPath):
        return _serve_atfim(path, cluster, issue, expanded)
    raise TypeError(f"no reference for {type(path).__name__}")


class MemoryInterface(abc.ABC):
    """Uniform cache-line read interface over GDDR5 or HMC-external."""

    @abc.abstractmethod
    def read_line(self, arrival: Cycles, address: int) -> float:
        """Fetch one cache line; return the data-delivery cycle."""

    @abc.abstractmethod
    def line_traffic_bytes(self) -> Bytes:
        """External bytes one line fill costs (request + response)."""


class Gddr5Interface(MemoryInterface):
    """Baseline: cache-line reads over the GDDR5 bus."""

    def __init__(self, memory: Gddr5Memory, packets: PacketSpec,
                 traffic: TrafficMeter) -> None:
        self.memory = memory
        self.packets = packets
        self.traffic = traffic
        self.payload_bytes = LINE_BYTES

    def read_line(self, arrival: Cycles, address: int) -> float:
        ready = gddr5_read(self.memory, arrival, address, self.payload_bytes)
        self.traffic.add_external(TrafficClass.TEXTURE, self.line_traffic_bytes())
        return ready

    def line_traffic_bytes(self) -> Bytes:
        return float(
            self.packets.read_request_bytes
            + self.payload_bytes
            + self.packets.header_bytes
        )


class HmcExternalInterface(MemoryInterface):
    """B-PIM: line reads over the HMC's external links."""

    def __init__(self, hmc: HybridMemoryCube, packets: PacketSpec,
                 traffic: TrafficMeter) -> None:
        self.hmc = hmc
        self.packets = packets
        self.traffic = traffic
        self.payload_bytes = LINE_BYTES

    def read_line(self, arrival: Cycles, address: int) -> float:
        ready = external_read(
            self.hmc,
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


def memory_interface(path: GpuFilteringPath) -> MemoryInterface:
    """The line-fill interface over ``path``'s memory."""
    packets = path.config.packets
    if path.gddr5 is not None:
        return Gddr5Interface(path.gddr5, packets, path.traffic)
    return HmcExternalInterface(path.hmc, packets, path.traffic)


def _serve_gpu_filtering(
    path: GpuFilteringPath, cluster: int, issue: float,
    expanded: ExpandedRequest,
) -> float:
    """Baseline/B-PIM: every conventional-order line through the caches,
    then filtering on the GPU."""
    unit = path.units[cluster]
    note_request(unit)
    num_texels = expanded.num_conventional_texels
    address_done = generate_addresses(unit, issue, num_texels)
    data_ready = address_done
    memory = memory_interface(path)
    for line in expanded.conventional_lines:
        ready = lookup(path.caches, cluster, address_done, line, memory)
        if ready > data_ready:
            data_ready = ready
    return filter_texels(unit, data_ready, num_texels)


def serve_stfim(
    path: StfimPath, cluster: int, issue: float, num_texels: int,
    lines: Sequence[int],
) -> float:
    """S-TFIM: one request, its texel count and unique texel lines,
    through its MTU in the logic layer."""
    packets = path.config.packets
    index = cluster // path.config.mtu_share
    mtu = path.mtus[index]
    note_request(mtu)

    # Shader -> MTU: live-texture package over the transmit link,
    # gated by the MTU's bounded request queue (stall protocol).
    admitted = enqueue(path.queues[index], issue)
    request_bytes = packets.texture_request_bytes
    path.traffic.add_external(TrafficClass.TEXTURE, float(request_bytes))
    delivered = send_request(path.hmc, admitted, request_bytes)

    # MTU pipeline: address generation, vault fetches, filtering.
    address_done = generate_addresses(mtu, delivered, num_texels)
    data_ready = address_done
    window = path.merge_windows[index]
    for line in lines:
        merged_ready = window_lookup(window, line)
        if merged_ready is not None:
            ready = max(address_done, merged_ready)
        else:
            ready = internal_read(path.hmc, address_done, line, LINE_BYTES)
            path.traffic.add_internal(TrafficClass.TEXTURE, float(LINE_BYTES))
            window_insert(window, line, ready)
        if ready > data_ready:
            data_ready = ready
    filtered = filter_texels(mtu, data_ready, num_texels)

    # MTU -> shader: one filtered sample back over the receive link.
    response_bytes = packets.texture_response_bytes(samples=1)
    path.traffic.add_external(TrafficClass.TEXTURE, float(response_bytes))
    return send_response(path.hmc, filtered, response_bytes)


class ParentColumns(NamedTuple):
    """Per-parent values :func:`offload` reads by row: child texel
    count, and the parent's unique child lines
    ``child_lines[child_offsets[p]:child_offsets[p + 1]]``."""

    child_counts: Sequence[int]
    child_offsets: Sequence[int]
    child_lines: Sequence[int]


def offload(
    path: AtfimPath, arrival: float, missing: List[int],
    columns: ParentColumns,
) -> float:
    """A-TFIM: round-trip the missing parents, given as row indices
    into ``columns``, through the HMC pipeline."""
    packets = path.config.packets
    path.offload_packages += 1

    # Offloading Unit: one compressed package for this fetch's
    # missing parents (they share the first parent's base address).
    request_bytes = packets.parent_texel_request_bytes
    path.traffic.add_external(TrafficClass.TEXTURE, float(request_bytes))
    delivered = send_request(path.hmc, arrival, request_bytes)

    # Parent Texel Buffer admission (backpressure when full).
    admitted = enqueue(path.parent_buffer, delivered)

    # Texel Generator: one address op per child texel.
    total_children = sum(columns.child_counts[parent] for parent in missing)
    path.child_texels_generated += total_children
    generated = generate_addresses(
        path.texel_generator, admitted, total_children
    )

    # Child Texel Consolidation: dedup child lines across parents.
    child_lines, bounds = columns.child_lines, columns.child_offsets
    if path.config.consolidation_enabled:
        lines: List[int] = []
        seen = set()
        for parent in missing:
            for line in child_lines[bounds[parent]:bounds[parent + 1]]:
                if line not in seen:
                    seen.add(line)
                    lines.append(line)
    else:
        lines = [
            line
            for parent in missing
            for line in child_lines[bounds[parent]:bounds[parent + 1]]
        ]

    # Vault fetches at internal bandwidth, merged against in-flight
    # identical child fetches.  The merge window IS the consolidation
    # buffer's cross-package face: disabling consolidation disables
    # both the intra-package dedup above and this merging.
    data_ready = generated
    merging = path.config.consolidation_enabled
    for line in lines:
        merged_ready = (
            window_lookup(path.child_merge_window, line) if merging else None
        )
        if merged_ready is not None:
            ready = max(generated, merged_ready)
        else:
            ready = internal_read(path.hmc, generated, line, LINE_BYTES)
            path.traffic.add_internal(TrafficClass.TEXTURE, float(LINE_BYTES))
            if merging:
                window_insert(path.child_merge_window, line, ready)
            path.child_lines_fetched += 1
        if ready > data_ready:
            data_ready = ready

    # Combination Unit: one filter op per child texel.
    combined = filter_texels(path.combination_unit, data_ready, total_children)

    # Response package back to the GPU, normal bilinear-fetch format.
    response_bytes = packets.parent_texel_response_bytes(len(missing))
    path.traffic.add_external(TrafficClass.TEXTURE, float(response_bytes))
    return send_response(path.hmc, combined, response_bytes)


def _serve_atfim(
    path: AtfimPath, cluster: int, issue: float, expanded: ExpandedRequest
) -> float:
    """A-TFIM: classify each parent against the angle-tagged caches,
    offload the missing ones, filter the parents on the GPU."""
    parents = expanded.parents
    columns = ParentColumns(
        child_counts=[parent.num_children for parent in parents],
        child_offsets=list(accumulate(
            (len(parent.child_line_addresses) for parent in parents),
            initial=0,
        )),
        child_lines=[
            line for parent in parents
            for line in parent.child_line_addresses
        ],
    )
    angle = expanded.camera_angle
    unit = path.units[cluster]
    note_request(unit)
    threshold = path.config.effective_angle_threshold

    # GPU side: generate the (few) parent-texel addresses.
    num_parents = len(parents)
    address_done = generate_addresses(unit, issue, num_parents)

    # Classify each parent against the angle-tagged caches.  Only
    # anisotropic parents carry an angle tag; isotropic ones behave
    # like ordinary cached lines.
    missing: List[int] = []
    for parent in range(num_parents):
        needs_angle = columns.child_counts[parent] > 1
        result = probe(
            path.caches,
            cluster,
            parents[parent].line_address,
            angle if needs_angle else None,
            threshold if needs_angle else None,
        )
        if result is CacheAccessResult.HIT:
            path.parent_reuses += 1
        elif result is CacheAccessResult.ANGLE_MISS:
            path.parent_recalculations += 1
            missing.append(parent)
        else:
            path.parent_cold_misses += 1
            missing.append(parent)

    if missing:
        parents_ready = offload(path, address_done, missing, columns)
    else:
        parents_ready = address_done

    # GPU side: bilinear/trilinear over the (approximated) parents.
    return filter_texels(unit, parents_ready, num_parents)


def lookup(
    caches: CacheHierarchy,
    cluster: int,
    arrival: Cycles,
    address: int,
    memory: MemoryInterface,
) -> float:
    """Serve one line through L1 -> L2 -> memory; return ready time.

    An L1 hit is ready at ``arrival``; an L2 hit occupies the L2 port
    for one line and pays its latency; an L2 miss reads memory.
    """
    result = cache_lookup(caches.l1[cluster], address)
    if result is CacheAccessResult.HIT:
        return arrival
    l2_result = cache_lookup(caches.l2, address)
    if l2_result is CacheAccessResult.HIT:
        return server_access(caches.l2_port, arrival, LINE_BYTES)
    return memory.read_line(arrival, address)


def probe(
    caches: CacheHierarchy,
    cluster: int,
    address: int,
    angle: Optional[float] = None,
    angle_threshold: Optional[Radians] = None,
) -> CacheAccessResult:
    """Classify an access against L1 then L2, updating cache state.

    No time is charged: a parent that misses L1 and hits L2 is a reuse
    and pays neither the L2 port's occupancy nor its latency, where
    :func:`lookup` charges both.
    """
    result = cache_lookup(caches.l1[cluster], address, angle, angle_threshold)
    if result is CacheAccessResult.HIT:
        return CacheAccessResult.HIT
    if result is CacheAccessResult.ANGLE_MISS:
        # A stale-angle line must be recalculated regardless of L2;
        # refresh the L2 copy's angle tag as well.
        cache_lookup(caches.l2, address, angle, angle_threshold)
        return CacheAccessResult.ANGLE_MISS
    l2_result = cache_lookup(caches.l2, address, angle, angle_threshold)
    if l2_result is CacheAccessResult.HIT:
        return CacheAccessResult.HIT
    if l2_result is CacheAccessResult.ANGLE_MISS:
        return CacheAccessResult.ANGLE_MISS
    return CacheAccessResult.MISS


# ---------------------------------------------------------------------------
# Rasterization and shading.
# ---------------------------------------------------------------------------


def _footprint_columns(footprints: Sequence[SampleFootprint]) -> FootprintBatch:
    def column(name: str, dtype: type = np.float64) -> np.ndarray:
        return np.array([getattr(f, name) for f in footprints], dtype=dtype)

    return FootprintBatch(
        lod=column("lod"),
        anisotropy=column("anisotropy"),
        probes=column("probes", np.int64),
        major_du=column("major_du"),
        major_dv=column("major_dv"),
        major_length=column("major_length"),
    )


def trace_from_requests(
    requests: Sequence[TextureRequest],
    width: int = 64,
    height: int = 64,
    tile_size: int = 16,
) -> FragmentTrace:
    """The columnar trace of a list of request rows."""

    def column(name: str, dtype: type = np.int64) -> np.ndarray:
        return np.array([getattr(r, name) for r in requests], dtype=dtype)

    return FragmentTrace(
        width=width,
        height=height,
        pixel_x=column("pixel_x"),
        pixel_y=column("pixel_y"),
        texture_id=column("texture_id"),
        u=column("u", np.float64),
        v=column("v", np.float64),
        footprint=_footprint_columns([r.footprint for r in requests]),
        camera_angle=column("camera_angle", np.float64),
        tile_x=column("tile_x"),
        tile_y=column("tile_y"),
        tile_size=tile_size,
    )


def request_batch(
    footprints: Sequence[SampleFootprint],
    us: Sequence[float],
    vs: Sequence[float],
) -> RequestBatch:
    """The :class:`RequestBatch` of footprints and sample positions."""
    columns = _footprint_columns(footprints)
    return RequestBatch(
        u=np.asarray(us, dtype=np.float64),
        v=np.asarray(vs, dtype=np.float64),
        lod=columns.lod,
        probes=columns.probes,
        major_du=columns.major_du,
        major_dv=columns.major_dv,
        major_length=columns.major_length,
    )


@dataclass
class RasterFragment:
    """One fragment emitted by the per-pixel rasterizer (pre-shading)."""

    x: int
    y: int
    depth: float
    u: float
    v: float
    dudx: float
    dvdx: float
    dudy: float
    dvdy: float
    camera_angle: float
    texture_id: int


class ScalarRasterizer(Rasterizer):
    """The rasterizer with a per-pixel emitter and per-fragment footprints.

    :meth:`rasterize_fragments` returns each visible fragment as a
    :class:`RasterFragment` row with its :class:`TextureRequest`;
    :meth:`rasterize_scene` turns the requests into the frame's trace.
    Its emitter returns fragment lists, not batches, so
    :meth:`rasterize_batches` is not defined for it.
    """

    def rasterize_fragments(
        self,
        scene: Scene,
        camera: Camera,
        framebuffer: Framebuffer,
    ) -> List[Tuple[RasterFragment, TextureRequest]]:
        self.stats = RasterStats()
        width, height = framebuffer.width, framebuffer.height
        view_projection = camera.view_projection(width, height)
        results = []
        for triangle in scene.triangles:
            self.stats.triangles_submitted += 1
            texture = scene.textures[triangle.texture_id]
            emissions = self._rasterize_triangle(
                triangle, texture.width, texture.height,
                view_projection, camera, framebuffer,
            )
            fragments = [f for emission in emissions for f in emission]
            if fragments:
                self.stats.triangles_rasterized += 1
            for fragment in fragments:
                request = self._fragment_to_request(fragment)
                results.append((fragment, request))
        return results

    def rasterize_scene(
        self,
        scene: Scene,
        camera: Camera,
        framebuffer: Framebuffer,
    ) -> FragmentTrace:
        shaded = self.rasterize_fragments(scene, camera, framebuffer)
        return trace_from_requests(
            [request for _, request in shaded],
            framebuffer.width, framebuffer.height, self.tile_size,
        )

    def _fragment_to_request(self, fragment: RasterFragment) -> TextureRequest:
        footprint = compute_footprint(
            fragment.dudx, fragment.dvdx, fragment.dudy, fragment.dvdy,
            max_anisotropy=self.max_anisotropy, lod_bias=self.lod_bias,
        )
        return TextureRequest(
            pixel_x=fragment.x,
            pixel_y=fragment.y,
            texture_id=fragment.texture_id,
            u=fragment.u,
            v=fragment.v,
            footprint=footprint,
            camera_angle=fragment.camera_angle,
            tile_x=fragment.x // self.tile_size,
            tile_y=fragment.y // self.tile_size,
        )

    def _emit_fragments(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        bary0: np.ndarray,
        bary1: np.ndarray,
        bary2: np.ndarray,
        denom: np.ndarray,
        attrs_over_w: np.ndarray,
        grad_b: List[Tuple[float, float]],
        grad_denom_x: float,
        grad_denom_y: float,
        min_x: int,
        min_y: int,
        normal: np.ndarray,
        texture_id: int,
        camera: Camera,
        framebuffer: Framebuffer,
    ) -> List[RasterFragment]:
        """Per-pixel emission loop."""
        fragments: List[RasterFragment] = []
        camera_position = camera.position
        for row, col in zip(rows, cols):
            b = (bary0[row, col], bary1[row, col], bary2[row, col])
            d = denom[row, col]
            if d <= 0:
                continue
            w_value = 1.0 / d
            numerators = (
                b[0] * attrs_over_w[0] + b[1] * attrs_over_w[1] + b[2] * attrs_over_w[2]
            )
            attrs = numerators * w_value
            u, v = attrs[0], attrs[1]
            world = attrs[2:5]

            pixel_x = min_x + col
            pixel_y = min_y + row
            depth = w_value  # camera-space depth; smaller is closer
            self.stats.fragments_generated += 1
            if not framebuffer.depth_test(pixel_x, pixel_y, depth):
                self.stats.fragments_early_z_killed += 1
                continue
            framebuffer.depth[pixel_y, pixel_x] = depth

            # Analytic derivatives via the quotient rule.
            grad_num_x = (
                grad_b[0][0] * attrs_over_w[0]
                + grad_b[1][0] * attrs_over_w[1]
                + grad_b[2][0] * attrs_over_w[2]
            )
            grad_num_y = (
                grad_b[0][1] * attrs_over_w[0]
                + grad_b[1][1] * attrs_over_w[1]
                + grad_b[2][1] * attrs_over_w[2]
            )
            dudx = (grad_num_x[0] - u * grad_denom_x) * w_value
            dvdx = (grad_num_x[1] - v * grad_denom_x) * w_value
            dudy = (grad_num_y[0] - u * grad_denom_y) * w_value
            dvdy = (grad_num_y[1] - v * grad_denom_y) * w_value

            view = camera_position - world
            angle = camera_angle_from_normal(
                normal[0], normal[1], normal[2], view[0], view[1], view[2]
            )
            fragments.append(
                RasterFragment(
                    x=pixel_x,
                    y=pixel_y,
                    depth=depth,
                    u=u,
                    v=v,
                    dudx=dudx,
                    dvdx=dvdx,
                    dudy=dudy,
                    dvdy=dvdy,
                    camera_angle=angle,
                    texture_id=texture_id,
                )
            )
        return fragments


def reuse_producers(
    keys: np.ndarray, angles: np.ndarray, threshold: int
) -> np.ndarray:
    """The per-lookup form of :func:`repro.texture.batch.reuse_producers`.

    Walks the lookups in order with a dict from key to the index and
    tag code of the key's last recalculation: a lookup reuses when its
    key is stored and ``abs(stored - code) <= threshold`` (steps), and
    otherwise recalculates and stores its own index and code.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    producers = list(range(len(keys)))
    stored: Dict[int, Tuple[int, int]] = {}
    for index, key, angle in zip(producers, keys.tolist(), angles.tolist()):
        entry = stored.get(key)
        if entry is not None and abs(entry[1] - angle) <= threshold:
            producers[index] = entry[0]
        else:
            stored[key] = (index, angle)
    return np.array(producers, dtype=np.int64)


class AngleTaggedParentStore:
    """Functional model of A-TFIM's angle-tagged parent-texel reuse.

    Keys are parent texel identities ``(texture, level, x, y)``; values
    are the filtered parent value and the tag code of the camera angle
    it was filtered under.  A lookup whose code differs by more than the
    threshold's step count recalculates, exactly mirroring the
    architectural cache policy in :mod:`repro.texture.cache` -- but
    holding *values*, because the functional path needs the
    possibly-stale colors to measure their quality impact.
    """

    def __init__(self, threshold: float) -> None:
        self.steps = threshold_steps(threshold)
        self._store: Dict[Tuple[int, int, int, int], Tuple[np.ndarray, int]] = {}
        self.reuses = 0
        self.recalculations = 0

    def lookup(
        self, key: Tuple[int, int, int, int], angle: float
    ) -> Optional[np.ndarray]:
        code = int(angle_codes(angle))
        entry = self._store.get(key)
        if entry is None:
            return None
        value, stored_code = entry
        if abs(stored_code - code) <= self.steps:
            self.reuses += 1
            return value
        return None

    def store(self, key: Tuple[int, int, int, int], angle: float,
              value: np.ndarray) -> None:
        self._store[key] = (value, int(angle_codes(angle)))
        self.recalculations += 1


def shade_atfim(
    chain: MipmapChain,
    request: TextureRequest,
    parent_store: AngleTaggedParentStore,
) -> np.ndarray:
    """A-TFIM shading with angle-threshold parent reuse.

    For each parent texel: reuse the stored value when the angle
    matches within the threshold; otherwise recalculate it from its
    child texels under *this* request's footprint and store it.
    """
    footprint = request.footprint
    parents = parent_texel_coords(chain, footprint.lod, request.u, request.v)
    color = np.zeros(4, dtype=np.float64)
    for level, x, y, weight in parents:
        mip = chain.level(level)
        key = (request.texture_id, level, x % mip.width, y % mip.height)
        value = parent_store.lookup(key, request.camera_angle)
        if value is None:
            value = filter_parent_texel(chain, footprint, level, x, y)
            parent_store.store(key, request.camera_angle, value)
        color += weight * value
    return color


def shade_request(
    chain: MipmapChain,
    request: TextureRequest,
    mode: SamplingMode,
    parent_store: Optional[AngleTaggedParentStore],
) -> np.ndarray:
    """One request's colour under ``mode``, by the scalar kernels."""
    footprint = request.footprint
    if mode is SamplingMode.ISOTROPIC:
        return trilinear_sample(chain, footprint.lod, request.u, request.v)
    if mode is SamplingMode.EXACT:
        return anisotropic_sample(chain, footprint, request.u, request.v)
    if mode is SamplingMode.REORDERED:
        return anisotropic_first_sample(chain, footprint, request.u, request.v)
    return shade_atfim(chain, request, parent_store)


class ScalarRenderer(Renderer):
    """The renderer one fragment at a time.

    It rasterizes through :class:`ScalarRasterizer`, shades each request
    with :func:`shade_request`, and writes each fragment's depth and
    colour in submission order, so a later fragment at a pixel
    overwrites an earlier one.
    """

    def __init__(
        self,
        width: int,
        height: int,
        tile_size: int = 16,
        max_anisotropy: int = 16,
        lod_bias: float = 0.0,
    ) -> None:
        super().__init__(width, height, tile_size, max_anisotropy, lod_bias)
        self.rasterizer = ScalarRasterizer(
            tile_size=tile_size, max_anisotropy=max_anisotropy,
            lod_bias=lod_bias,
        )

    def render(
        self,
        scene: Scene,
        camera: Camera,
        mode: SamplingMode = SamplingMode.EXACT,
        angle_threshold: Radians = 0.0,
    ) -> RenderOutput:
        store = None
        if mode is SamplingMode.ATFIM:
            store = AngleTaggedParentStore(threshold=angle_threshold)
        framebuffer = Framebuffer(self.width, self.height)
        shaded = self.rasterizer.rasterize_fragments(scene, camera, framebuffer)
        for fragment, request in shaded:
            chain = scene.mipmap_chain(request.texture_id)
            color = shade_request(chain, request, mode, store)
            framebuffer.depth[fragment.y, fragment.x] = fragment.depth
            framebuffer.color[fragment.y, fragment.x] = color
        counts = (0, 0) if store is None else (store.reuses, store.recalculations)
        return RenderOutput(
            image=framebuffer.rgb_image(),
            trace=trace_from_requests(
                [request for _, request in shaded],
                self.width, self.height, self.rasterizer.tile_size,
            ),
            raster_stats=self.rasterizer.stats,
            framebuffer=framebuffer,
            parent_reuses=counts[0],
            parent_recalculations=counts[1],
        )
