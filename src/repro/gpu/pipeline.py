"""Whole-frame GPU simulation: stages, overlap, and the texture replay.

The frame time decomposes as::

    frame = geometry + rasterization + fragment_stage

where the fragment stage runs three concurrent activities -- fragment
shading (ALU), texture filtering, and ROP/memory writeback -- combined
with a partial-overlap rule (DESIGN.md section 5)::

    fragment_stage = max(parts) + overlap_factor * (sum(parts) - max(parts))

Texture filtering time is *measured*, not modelled analytically: the
request stream from the rasterizer is replayed through the design's
texture path with per-cluster issue pacing and a bounded number of
outstanding requests per cluster (the shader's latency-hiding depth).
The paper's texture-filtering latency metric -- shader issue to filtered
result -- falls out of the same replay.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence, Union

import numpy as np

from repro.core.expansion import ExpandedFrame, ExpandedRequest
from repro.core.paths import CacheHierarchyStats, PathActivity, TexturePath
from repro.gpu.config import GPUConfig
from repro.gpu.geometry import GeometryResult, simulate_geometry
from repro.gpu.rop import RopResult, simulate_rop
from repro.gpu.shader import ShaderResult, simulate_fragment_shading
from repro.memory.traffic import TrafficMeter
from repro.sim.latency import LatencyHistogram
from repro.texture.requests import FragmentTrace


@dataclass
class StageTimes:
    """Cycle counts per pipeline stage for one frame."""

    geometry: float = 0.0
    rasterization: float = 0.0
    shader: float = 0.0
    texture: float = 0.0
    rop: float = 0.0
    fragment_stage: float = 0.0

    @property
    def frame(self) -> float:
        return self.geometry + self.rasterization + self.fragment_stage


@dataclass
class FrameResult:
    """Everything one simulated frame reports."""

    stages: StageTimes
    traffic: TrafficMeter
    texture_latency: LatencyHistogram
    path_activity: PathActivity
    cache_stats: CacheHierarchyStats
    num_fragments: int
    num_requests: int
    texels_requested: int
    geometry: GeometryResult
    rop: RopResult
    shader: ShaderResult

    @property
    def frame_cycles(self) -> float:
        return self.stages.frame

    @property
    def texture_cycles(self) -> float:
        """The texture subsystem's makespan for the frame (the quantity
        that feeds the fragment-stage overlap model)."""
        return self.stages.texture

    @property
    def texture_filter_latency(self) -> float:
        """Mean texture-filtering latency per request.

        This is the paper's texture-filtering performance metric
        (section VII-A): "the latency for texture filtering from the
        time when a shader sends out the texel fetching request to when
        it receives the final texture output".  Fig. 10 plots the ratio
        of these means.
        """
        return self.texture_latency.mean

    def speedup_over(self, baseline: "FrameResult") -> float:
        """Overall 3D-rendering speedup relative to a baseline frame
        (Fig. 11's metric: frame makespan ratio)."""
        if self.frame_cycles <= 0:
            raise ValueError("degenerate frame time")
        return baseline.frame_cycles / self.frame_cycles

    def texture_speedup_over(self, baseline: "FrameResult") -> float:
        """Texture-filtering speedup relative to a baseline frame
        (Fig. 10's metric: mean request-latency ratio)."""
        if self.texture_filter_latency <= 0:
            raise ValueError("degenerate texture latency")
        return baseline.texture_filter_latency / self.texture_filter_latency

    def summary(self) -> str:
        """A multi-line human-readable digest of this frame."""
        stages = self.stages
        traffic = self.traffic
        breakdown = traffic.breakdown()
        lines = [
            f"frame: {self.frame_cycles:.0f} cycles "
            f"({self.num_requests} texture requests, "
            f"{self.texels_requested} texels)",
            f"stages: geometry {stages.geometry:.0f} | "
            f"raster {stages.rasterization:.0f} | "
            f"shader {stages.shader:.0f} | "
            f"texture {stages.texture:.0f} | "
            f"rop {stages.rop:.0f} | "
            f"fragment-stage {stages.fragment_stage:.0f}",
            f"texture latency: mean {self.texture_filter_latency:.0f}, "
            f"max {self.texture_latency.max_latency:.0f}",
            f"external traffic: {traffic.external_total / 1024:.1f} KB "
            f"(texture {breakdown['texture']:.0%}) | "
            f"internal: {traffic.internal_total / 1024:.1f} KB",
        ]
        if self.cache_stats.l1_accesses:
            stats = self.cache_stats
            lines.append(
                f"texture caches: L1 {stats.l1_hit_rate:.0%} hit "
                f"({stats.l1_angle_misses} angle recalcs), "
                f"L2 {stats.l2_hits} hits / {stats.l2_misses} misses"
            )
        return "\n".join(lines)


Expansion = Union[ExpandedFrame, Sequence[ExpandedRequest]]
"""A frame's expansion: the columnar frame, or a list of per-request
expansions, which :meth:`GpuPipeline._frame_for` adapts."""


class GpuPipeline:
    """Simulates whole frames given a texture path."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self._frame_cache = None

    def _frame_for(self, expanded: Expansion) -> ExpandedFrame:
        """The columnar frame of ``expanded``.

        A list is adapted by :meth:`ExpandedFrame.from_requests`,
        memoised on the list's identity: a caller that replays one list
        for the warm-up and the measured pass converts it once.  Holding
        the list in the cache keeps the ``is`` test sound.
        """
        if isinstance(expanded, ExpandedFrame):
            return expanded
        cached = self._frame_cache
        if cached is not None and cached[0] is expanded:
            return cached[1]
        frame = ExpandedFrame.from_requests(expanded)
        self._frame_cache = (expanded, frame)
        return frame

    def assign_clusters(self, trace: FragmentTrace) -> np.ndarray:
        """Bind each request to a shader cluster by tile, round-robin.

        Fragment tiles are the rasterizer's work units (section II-A);
        distributing tiles round-robin across clusters is the baseline
        architecture's load-balancing policy and keeps a tile's texel
        locality within one L1.  Pure integer tile math, evaluated as
        one numpy expression over the trace's tile columns.
        """
        tile_size = trace.tile_size
        tiles_x = max(1, (trace.width + tile_size - 1) // tile_size)
        tiles = trace.tile_y * tiles_x + trace.tile_x
        return tiles % self.config.num_clusters

    def _partition(
        self, trace: FragmentTrace
    ) -> tuple[np.ndarray, List[List[int]], List[int]]:
        """Split the request stream per cluster, preserving order.

        Returns each request's cluster (:meth:`assign_clusters`), the
        per-cluster lists of request *indices* (into the trace and its
        expansion) and the per-cluster fragment counts.
        """
        config = self.config
        clusters = self.assign_clusters(trace)
        per_cluster: List[List[int]] = [
            [] for _ in range(config.num_clusters)
        ]
        for request_index, cluster in enumerate(clusters.tolist()):
            per_cluster[cluster].append(request_index)
        fragments_per_cluster = [
            len(stream) for stream in per_cluster
        ]
        return clusters, per_cluster, fragments_per_cluster

    def replay_texture_stream(
        self,
        trace: FragmentTrace,
        expanded: Expansion,
        path: TexturePath,
    ) -> tuple[float, LatencyHistogram, List[int]]:
        """Replay all texture requests through a texture path.

        Per cluster, requests issue one per cycle, but a request may not
        issue until the request ``max_inflight`` positions earlier has
        completed (finite latency-hiding depth).  Returns the texture
        makespan, the latency histogram, and per-cluster fragment counts.

        Event-ordered, from a heap of ``(issue, cluster)`` entries, one
        per cluster with requests left: each step serves the cluster
        whose next request issues earliest, ties in ascending cluster
        order, so shared resources (L2 port, links, memory channels)
        observe arrivals in simulated-time order.  Serving a cluster
        changes only its own clock and inflight window, so its entry is
        never stale, and the service sequence is exactly that of the
        reference scheduler in ``tests/reference.py``.

        Requests are served through the session that
        :meth:`TexturePath.begin_replay` opens on the frame's arrays and
        the request-to-cluster assignment: each cluster's requests once
        each, in index order.  The latency histogram and makespan are
        reduced at drain time from the event-ordered issue and
        completion logs: ``observe_batch``'s cumsum-based fold is
        bit-identical to per-event ``observe``, and float max is
        order-independent.
        """
        if len(expanded) != len(trace):
            raise ValueError("expansion does not match the trace")
        frame = self._frame_for(expanded)
        config = self.config
        histogram = LatencyHistogram("texture_latency")
        depth = config.max_inflight_texture_requests
        clusters, per_cluster, fragments_per_cluster = self._partition(trace)
        if not len(trace):
            return 0.0, histogram, fragments_per_cluster

        session = path.begin_replay(frame, clusters)
        serve_one = session.serve_one
        # Each cluster's completions so far: the gate of its request at
        # position p is the completion at position p - depth.
        completed: List[List[float]] = [[] for _ in per_cluster]
        heap = [
            (0.0, cluster)
            for cluster, stream in enumerate(per_cluster) if stream
        ]
        issue_log: List[float] = []
        completion_log: List[float] = []
        log_issue, log_completion = issue_log.append, completion_log.append
        replace, pop = heapq.heapreplace, heapq.heappop
        while heap:
            now, cluster = heap[0]
            done = completed[cluster]
            stream = per_cluster[cluster]
            position = len(done)
            completion = serve_one(cluster, now, stream[position])
            log_issue(now)
            log_completion(completion)
            done.append(completion)
            position += 1
            if position < len(stream):
                next_time = now + 1.0
                if position >= depth:
                    gate = done[position - depth]
                    if gate > next_time:
                        next_time = gate
                replace(heap, (next_time, cluster))
            else:
                pop(heap)

        session.finish()
        completions = np.asarray(completion_log, dtype=np.float64)
        latencies = completions - np.asarray(issue_log, dtype=np.float64)
        if bool(np.any(latencies < 0)):
            raise RuntimeError("texture path completed before issue")
        histogram.observe_batch(latencies)
        makespan = float(np.max(completions))
        return makespan, histogram, fragments_per_cluster

    def simulate_frame(
        self,
        trace: FragmentTrace,
        expanded: Expansion,
        path: TexturePath,
        traffic: TrafficMeter,
        num_vertices: int,
        external_bytes_per_cycle: float,
    ) -> FrameResult:
        """Run the full pipeline model for one frame."""
        frame = self._frame_for(expanded)
        config = self.config

        geometry = simulate_geometry(config, num_vertices, traffic)

        raster_cycles = len(trace) / config.fragments_per_cycle_raster

        texture_cycles, histogram, fragments_per_cluster = (
            self.replay_texture_stream(trace, frame, path)
        )

        shader = simulate_fragment_shading(config, fragments_per_cluster)

        rop = simulate_rop(
            config,
            num_fragments=len(trace),
            num_pixels=trace.width * trace.height,
            external_bytes_per_cycle=external_bytes_per_cycle,
            traffic=traffic,
        )

        parts = [shader.cycles, texture_cycles, rop.cycles]
        dominant = max(parts)
        fragment_stage = dominant + config.overlap_factor * (sum(parts) - dominant)

        stages = StageTimes(
            geometry=geometry.cycles,
            rasterization=raster_cycles,
            shader=shader.cycles,
            texture=texture_cycles,
            rop=rop.cycles,
            fragment_stage=fragment_stage,
        )
        texels = int(frame.texels.sum())
        return FrameResult(
            stages=stages,
            traffic=traffic,
            texture_latency=histogram,
            path_activity=path.activity(),
            cache_stats=path.cache_stats(),
            num_fragments=len(trace),
            num_requests=len(trace),
            texels_requested=texels,
            geometry=geometry,
            rop=rop,
            shader=shader,
        )
