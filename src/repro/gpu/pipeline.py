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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.expansion import ExpandedRequest, RequestExpander
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


class GpuPipeline:
    """Simulates whole frames given a texture path.

    ``batched_replay`` (the default) drains all heap events ready at one
    timestamp as a numpy chunk through ``path.serve_batch``; the scalar
    one-event-at-a-time heap loop is retained as the oracle the batched
    scheduler is parity-tested against (``tests/gpu/test_replay_batch``).
    """

    def __init__(self, config: GPUConfig, batched_replay: bool = True) -> None:
        self.config = config
        self.batched_replay = batched_replay
        self._partition_cache = None

    def assign_clusters(self, trace: FragmentTrace) -> np.ndarray:
        """Bind each request to a shader cluster by tile, round-robin.

        Fragment tiles are the rasterizer's work units (section II-A);
        distributing tiles round-robin across clusters is the baseline
        architecture's load-balancing policy and keeps a tile's texel
        locality within one L1.  Pure integer tile math, evaluated as
        one numpy expression over the gathered tile columns.
        """
        tile_size = trace.tile_size
        tiles_x = max(1, (trace.width + tile_size - 1) // tile_size)
        num_requests = len(trace.requests)
        tile_x = np.fromiter(
            (request.tile_x for request in trace.requests),
            dtype=np.int64, count=num_requests,
        )
        tile_y = np.fromiter(
            (request.tile_y for request in trace.requests),
            dtype=np.int64, count=num_requests,
        )
        return (tile_y * tiles_x + tile_x) % self.config.num_clusters

    def _partition(
        self, trace: FragmentTrace
    ) -> tuple[List[List[int]], List[int]]:
        """Split the request stream per cluster, preserving order.

        Returns per-cluster lists of request *indices* (into the trace
        and its expansion list) plus per-cluster fragment counts.

        Memoised on the trace's identity: the warm-up and measured
        replays of one frame partition the same trace object, and the
        partition is read-only to both schedulers.
        """
        cached = self._partition_cache
        if cached is not None and cached[0] is trace:
            return cached[1]
        config = self.config
        assignments = self.assign_clusters(trace).tolist()
        per_cluster: List[List[int]] = [
            [] for _ in range(config.num_clusters)
        ]
        for request_index, cluster in enumerate(assignments):
            per_cluster[cluster].append(request_index)
        fragments_per_cluster = [
            len(stream) for stream in per_cluster
        ]
        result = (per_cluster, fragments_per_cluster)
        self._partition_cache = (trace, result)
        return result

    def replay_texture_stream(
        self,
        trace: FragmentTrace,
        expanded: Sequence[ExpandedRequest],
        path: TexturePath,
        batched: Optional[bool] = None,
    ) -> tuple[float, LatencyHistogram, List[int]]:
        """Replay all texture requests through a texture path.

        Per cluster, requests issue one per cycle, but a request may not
        issue until the request ``max_inflight`` positions earlier has
        completed (finite latency-hiding depth).  Returns the texture
        makespan, the latency histogram, and per-cluster fragment counts.

        ``batched=None`` defers to the pipeline's ``batched_replay``
        default; the batched and scalar schedulers are bit-identical.
        """
        if batched is None:
            batched = self.batched_replay
        if batched:
            return self._replay_batched(trace, expanded, path)
        return self._replay_scalar(trace, expanded, path)

    def _replay_scalar(
        self,
        trace: FragmentTrace,
        expanded: Sequence[ExpandedRequest],
        path: TexturePath,
    ) -> tuple[float, LatencyHistogram, List[int]]:
        """One-event-at-a-time heap replay: the scheduling oracle."""
        import heapq

        config = self.config
        histogram = LatencyHistogram("texture_latency")
        depth = config.max_inflight_texture_requests
        makespan = 0.0
        per_cluster, fragments_per_cluster = self._partition(trace)

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

        heap: List[tuple[float, int]] = []
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
            completion = path.serve(cluster, issue, expansion)
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

    def _replay_batched(
        self,
        trace: FragmentTrace,
        expanded: Sequence[ExpandedRequest],
        path: TexturePath,
    ) -> tuple[float, LatencyHistogram, List[int]]:
        """Per-timestamp chunked replay, bit-identical to the oracle.

        All events ready at the minimum next-issue time are drained as
        one chunk through the path's replay session.  Why chunking
        preserves the heap schedule: serving cluster ``c`` at time ``t``
        mutates only ``c``'s own clock and inflight window, so the
        ready set at ``t`` is fixed the moment ``t`` becomes the
        minimum next-issue time.  The scalar heap pops equal-time
        entries in ascending cluster order; draining the ready set in
        ascending cluster order therefore issues the exact same
        (time, cluster) service sequence to the shared resources.

        The vectorization lives where the data is wide, not in the
        (inherently sequential, 16-entry) scheduler state: per-request
        columns are precomputed by :meth:`TexturePath.begin_replay` as
        whole-trace numpy expressions, and the latency histogram and
        makespan are reduced at drain time from the event-ordered
        completion log -- ``observe_batch``'s cumsum-based fold is
        bit-identical to per-event ``observe``, and float max is
        order-independent.  Profiling drove this split: ready sets are
        singletons in steady state (cluster clocks drift apart after
        the first few cycles), so numpy state arrays per round cost
        more than they save.
        """
        config = self.config
        num_clusters = config.num_clusters
        histogram = LatencyHistogram("texture_latency")
        depth = config.max_inflight_texture_requests
        per_cluster, fragments_per_cluster = self._partition(trace)

        lengths = [len(stream) for stream in per_cluster]
        remaining = sum(lengths)
        if remaining == 0:
            return 0.0, histogram, fragments_per_cluster

        session = path.begin_replay(expanded)
        serve_one = session.serve_one
        serve_chunk = session.serve_chunk
        infinity = float("inf")
        cursor = [0] * num_clusters
        inflight: List[List[float]] = [[] for _ in range(num_clusters)]
        # ready_at[c] is always fresh (recomputed after each serve), so
        # no stale-entry revalidation is needed: the scalar heap's
        # re-pushed entries resolve to these same fresh values -- and
        # the per-cluster clock (issue + 1) folds into ready_at too.
        ready_at = [
            0.0 if lengths[cluster] else infinity
            for cluster in range(num_clusters)
        ]
        completion_log: List[float] = []
        round_times: List[float] = []
        round_sizes: List[int] = []

        while remaining:
            now = min(ready_at)
            if ready_at.count(now) == 1:
                # Steady-state fast path: cluster clocks drift apart
                # after the first few cycles, so nearly every round
                # serves exactly one cluster.
                cluster = ready_at.index(now)
                position = cursor[cluster]
                completion = serve_one(
                    cluster, now, per_cluster[cluster][position]
                )
                completion_log.append(completion)
                round_times.append(now)
                round_sizes.append(1)
                window = inflight[cluster]
                window.append(completion)
                if len(window) > depth:
                    del window[0]
                position += 1
                cursor[cluster] = position
                next_time = now + 1.0
                if position < lengths[cluster]:
                    gate = window[-depth] if len(window) >= depth else 0.0
                    ready_at[cluster] = (
                        gate if gate > next_time else next_time
                    )
                else:
                    ready_at[cluster] = infinity
                remaining -= 1
                continue
            ready = [
                cluster
                for cluster in range(num_clusters)
                if ready_at[cluster] == now
            ]
            indices = [
                per_cluster[cluster][cursor[cluster]] for cluster in ready
            ]
            served = serve_chunk(ready, now, indices)
            completion_log.extend(served)
            round_times.append(now)
            round_sizes.append(len(ready))
            next_time = now + 1.0
            for cluster, completion in zip(ready, served):
                window = inflight[cluster]
                window.append(completion)
                if len(window) > depth:
                    del window[0]
                position = cursor[cluster] + 1
                cursor[cluster] = position
                if position < lengths[cluster]:
                    gate = window[-depth] if len(window) >= depth else 0.0
                    ready_at[cluster] = (
                        gate if gate > next_time else next_time
                    )
                else:
                    ready_at[cluster] = infinity
            remaining -= len(ready)

        session.finish()
        completions = np.asarray(completion_log, dtype=np.float64)
        issues = np.repeat(
            np.asarray(round_times, dtype=np.float64),
            np.asarray(round_sizes, dtype=np.int64),
        )
        latencies = completions - issues
        if bool(np.any(latencies < 0)):
            raise RuntimeError("texture path completed before issue")
        histogram.observe_batch(latencies)
        makespan = float(np.max(completions))
        return makespan, histogram, fragments_per_cluster

    def simulate_frame(
        self,
        trace: FragmentTrace,
        expanded: Sequence[ExpandedRequest],
        path: TexturePath,
        traffic: TrafficMeter,
        num_vertices: int,
        external_bytes_per_cycle: float,
    ) -> FrameResult:
        """Run the full pipeline model for one frame."""
        if len(expanded) != len(trace.requests):
            raise ValueError("expansion list does not match the trace")
        config = self.config

        geometry = simulate_geometry(config, num_vertices, traffic)

        raster_cycles = len(trace.requests) / config.fragments_per_cycle_raster

        texture_cycles, histogram, fragments_per_cluster = (
            self.replay_texture_stream(trace, expanded, path)
        )

        shader = simulate_fragment_shading(config, fragments_per_cluster)

        rop = simulate_rop(
            config,
            num_fragments=len(trace.requests),
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
        texels = sum(expansion.num_conventional_texels for expansion in expanded)
        return FrameResult(
            stages=stages,
            traffic=traffic,
            texture_latency=histogram,
            path_activity=path.activity(),
            cache_stats=path.cache_stats(),
            num_fragments=len(trace.requests),
            num_requests=len(trace.requests),
            texels_requested=texels,
            geometry=geometry,
            rop=rop,
            shader=shader,
        )
