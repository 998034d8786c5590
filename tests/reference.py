"""Scalar references that the parity tests hold the production code to.

Each layer of the simulator has one production implementation, batched
or inlined for speed.  This module keeps the plain one-at-a-time form of
each, with the same arithmetic, so a parity test can demand bit-identical
results:

* :func:`replay_texture_stream` -- the one-event-at-a-time heap
  scheduler, serving each request through its design's :func:`serve`;
* :func:`serve` -- one request through one design's texture path:
  texture-unit stages, L1 -> L2 -> memory :func:`lookup` (baseline and
  B-PIM, filling lines through a :class:`MemoryInterface`), the S-TFIM
  memory texture unit (:func:`serve_stfim`), or the A-TFIM angle-tagged
  :func:`probe` and :func:`offload`.  Each calls the live objects'
  per-access methods: ``HybridMemoryCube.internal_read`` and its links,
  ``Gddr5Memory.read``, ``RequestQueue.enqueue``, the
  :class:`~repro.core.paths.ReadMergeWindow` and the texture units;
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
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.atfim import AtfimPath
from repro.core.baseline import GpuFilteringPath
from repro.core.expansion import ExpandedRequest
from repro.core.paths import CacheHierarchy, TexturePath
from repro.core.stfim import StfimPath
from repro.gpu.pipeline import Expansion, GpuPipeline
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import HybridMemoryCube
from repro.memory.packets import PacketSpec
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import Rasterizer, RasterStats
from repro.render.renderer import Renderer, RenderOutput, SamplingMode
from repro.render.scene import Scene
from repro.sim.latency import LatencyHistogram
from repro.texture.cache import CacheAccessResult
from repro.texture.batch import RequestBatch
from repro.texture.lod import (
    FootprintBatch,
    SampleFootprint,
    camera_angle_from_normal,
    compute_footprint,
    quantize_angle,
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
from repro.units import Bytes, Cycles, Radians


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
        self.payload_bytes = packets.cache_line_bytes

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
    """B-PIM: line reads over the HMC's external links."""

    def __init__(self, hmc: HybridMemoryCube, packets: PacketSpec,
                 traffic: TrafficMeter) -> None:
        self.hmc = hmc
        self.packets = packets
        self.traffic = traffic
        self.payload_bytes = packets.cache_line_bytes

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
    unit.note_request()
    num_texels = expanded.num_conventional_texels
    address_done = unit.generate_addresses(issue, num_texels)
    data_ready = address_done
    memory = memory_interface(path)
    for line in expanded.conventional_lines:
        ready = lookup(path.caches, cluster, address_done, line, memory)
        if ready > data_ready:
            data_ready = ready
    return unit.filter_texels(data_ready, num_texels)


def serve_stfim(
    path: StfimPath, cluster: int, issue: float, num_texels: int,
    lines: Sequence[int],
) -> float:
    """S-TFIM: one request, its texel count and unique texel lines,
    through its MTU in the logic layer."""
    packets = path.config.packets
    index = cluster // path.config.mtu_share
    mtu = path.mtus[index]
    mtu.note_request()

    # Shader -> MTU: live-texture package over the transmit link,
    # gated by the MTU's bounded request queue (stall protocol).
    admitted = path.queues[index].enqueue(issue)
    request_bytes = packets.texture_request_bytes
    path.traffic.add_external(TrafficClass.TEXTURE, float(request_bytes))
    delivered = path.hmc.send_request(admitted, request_bytes)

    # MTU pipeline: address generation, vault fetches, filtering.
    address_done = mtu.generate_addresses(delivered, num_texels)
    data_ready = address_done
    line_bytes = packets.cache_line_bytes
    window = path.merge_windows[index]
    for line in lines:
        merged_ready = window.lookup(line)
        if merged_ready is not None:
            ready = max(address_done, merged_ready)
        else:
            ready = path.hmc.internal_read(address_done, line, line_bytes)
            path.traffic.add_internal(TrafficClass.TEXTURE, float(line_bytes))
            window.insert(line, ready)
        if ready > data_ready:
            data_ready = ready
    filtered = mtu.filter_texels(data_ready, num_texels)

    # MTU -> shader: one filtered sample back over the receive link.
    response_bytes = packets.texture_response_bytes(samples=1)
    path.traffic.add_external(TrafficClass.TEXTURE, float(response_bytes))
    return path.hmc.send_response(filtered, response_bytes)


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
    delivered = path.hmc.send_request(arrival, request_bytes)

    # Parent Texel Buffer admission (backpressure when full).
    admitted = path.parent_buffer.enqueue(delivered)

    # Texel Generator: one address op per child texel.
    total_children = sum(columns.child_counts[parent] for parent in missing)
    path.child_texels_generated += total_children
    generated = path.texel_generator.generate_addresses(admitted, total_children)

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
    line_bytes = packets.cache_line_bytes
    data_ready = generated
    merging = path.config.consolidation_enabled
    for line in lines:
        merged_ready = (
            path.child_merge_window.lookup(line) if merging else None
        )
        if merged_ready is not None:
            ready = max(generated, merged_ready)
        else:
            ready = path.hmc.internal_read(generated, line, line_bytes)
            path.traffic.add_internal(TrafficClass.TEXTURE, float(line_bytes))
            if merging:
                path.child_merge_window.insert(line, ready)
            path.child_lines_fetched += 1
        if ready > data_ready:
            data_ready = ready

    # Combination Unit: one filter op per child texel.
    combined = path.combination_unit.filter_texels(data_ready, total_children)

    # Response package back to the GPU, normal bilinear-fetch format.
    response_bytes = packets.parent_texel_response_bytes(len(missing))
    path.traffic.add_external(TrafficClass.TEXTURE, float(response_bytes))
    return path.hmc.send_response(combined, response_bytes)


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
    unit.note_request()
    threshold = path.config.effective_angle_threshold

    # GPU side: generate the (few) parent-texel addresses.
    num_parents = len(parents)
    address_done = unit.generate_addresses(issue, num_parents)

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
    return unit.filter_texels(parents_ready, num_parents)


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
    result = caches.l1[cluster].lookup(address)
    if result is CacheAccessResult.HIT:
        return arrival
    l2_result = caches.l2.lookup(address)
    if l2_result is CacheAccessResult.HIT:
        return caches.l2_port.access(arrival, caches.line_bytes)
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
    result = caches.l1[cluster].lookup(address, angle, angle_threshold)
    if result is CacheAccessResult.HIT:
        return CacheAccessResult.HIT
    if result is CacheAccessResult.ANGLE_MISS:
        # A stale-angle line must be recalculated regardless of L2;
        # refresh the L2 copy's angle tag as well.
        caches.l2.lookup(address, angle, angle_threshold)
        return CacheAccessResult.ANGLE_MISS
    l2_result = caches.l2.lookup(address, angle, angle_threshold)
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
    keys: np.ndarray, angles: np.ndarray, threshold: float
) -> np.ndarray:
    """The per-lookup form of :func:`repro.texture.batch.reuse_producers`.

    Walks the lookups in order with a dict from key to the index and
    angle of the key's last recalculation: a lookup reuses when its key
    is stored and ``abs(stored - angle) <= threshold``, and otherwise
    recalculates and stores its own index and angle.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be non-negative")
    producers = list(range(len(keys)))
    stored: Dict[int, Tuple[int, float]] = {}
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
    are the filtered parent value and the (quantised) camera angle it was
    filtered under.  A lookup whose angle differs by more than the
    threshold recalculates, exactly mirroring the architectural cache
    policy in :mod:`repro.texture.cache` -- but holding *values*, because
    the functional path needs the possibly-stale colors to measure their
    quality impact.
    """

    def __init__(self, threshold: float, angle_bits: int = 7) -> None:
        if not threshold >= 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self.angle_bits = angle_bits
        self._store: Dict[Tuple[int, int, int, int], Tuple[np.ndarray, float]] = {}
        self.reuses = 0
        self.recalculations = 0

    def lookup(
        self, key: Tuple[int, int, int, int], angle: float
    ) -> Optional[np.ndarray]:
        quantised = quantize_angle(angle, self.angle_bits)
        entry = self._store.get(key)
        if entry is None:
            return None
        value, stored_angle = entry
        if abs(stored_angle - quantised) <= self.threshold:
            self.reuses += 1
            return value
        return None

    def store(self, key: Tuple[int, int, int, int], angle: float,
              value: np.ndarray) -> None:
        quantised = quantize_angle(angle, self.angle_bits)
        self._store[key] = (value, quantised)
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
