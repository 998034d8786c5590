"""A-TFIM: anisotropic filtering in memory, reordered first (section V).

The advanced design splits texture filtering:

* the GPU texture units run only bilinear/trilinear, over *parent texels*
  (the 8 texels trilinear needs with anisotropic filtering disabled),
  which live in the ordinary L1/L2 texture caches tagged with the camera
  angle they were filtered under;
* on a parent-texel miss -- or a hit whose stored angle differs from the
  requesting pixel's by more than the threshold -- the Offloading Unit
  packs the missing parents into one offloading package (hash-table
  offset compression, section V-D) and ships it to the HMC;
* in the logic layer, the Texel Generator expands each parent into its
  probe-displaced *child texels*, the Child Texel Consolidation merges
  duplicate child fetches, the vaults serve them at internal bandwidth,
  and the Combination Unit averages children into approximated parent
  values, which return as one normal-format response package.

Structures and sizes follow Fig. 9 and section V-D: a 256-entry Parent
Texel Buffer gates in-flight parents; the Texel Generator and Combination
Unit are 16-wide ALU arrays.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, NamedTuple, Sequence

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame, ExpandedRequest
from repro.core.paths import (
    CacheHierarchy,
    CacheHierarchyStats,
    HmcExternalInterface,
    PathActivity,
    ReadMergeWindow,
    ReplaySession,
    TexturePath,
    _line_payload_bytes,
    make_hmc,
)
from repro.gpu.config import ATFIM_MEMORY_UNIT
from repro.gpu.texunit import TextureUnit
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.sim.resources import RequestQueue
from repro.texture.cache import CacheAccessResult

PARENT_TEXEL_BUFFER_DEPTH = 256
"""Entries in the Parent Texel Buffer, equal to the memory request queue
size "to avoid data loss" (section V-D)."""


class AtfimPath(TexturePath):
    """The A-TFIM texture path."""

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        super().__init__(config, traffic)
        if config.design is not Design.A_TFIM:
            raise ValueError(f"wrong path for design {config.design}")
        gpu = config.gpu
        self.hmc = make_hmc(config)
        self.units: List[TextureUnit] = [
            TextureUnit(f"tu.{cluster}", gpu.texture_unit)
            for cluster in range(gpu.num_clusters)
        ]
        self.caches = CacheHierarchy(config, traffic)
        # Logic-layer pipeline (one instance, 16-wide, shared by all
        # clusters -- Fig. 9 shows a single in-memory filtering pipeline).
        self.texel_generator = TextureUnit("hmc.texelgen", ATFIM_MEMORY_UNIT)
        self.combination_unit = TextureUnit("hmc.combine", ATFIM_MEMORY_UNIT)
        self.parent_buffer = RequestQueue(
            name="hmc.parentbuf",
            capacity=PARENT_TEXEL_BUFFER_DEPTH,
            drain_rate=float(ATFIM_MEMORY_UNIT.filter_alus),
        )
        # The Child Texel Consolidation buffer (256 entries, section V-D)
        # also merges identical child fetches *across* in-flight
        # offloading packages: recalculations of popular parent texels
        # re-request the same child lines within a short window.
        self.child_merge_window = ReadMergeWindow(capacity=PARENT_TEXEL_BUFFER_DEPTH)
        self.parent_reuses = 0
        self.parent_recalculations = 0
        self.parent_cold_misses = 0
        self.child_texels_generated = 0
        self.child_lines_fetched = 0
        self.offload_packages = 0

    def serve(self, cluster: int, issue: float, expanded: ExpandedRequest) -> float:
        return self._serve_parents(
            cluster, issue, expanded.request.camera_angle,
            range(len(expanded.parents)), _ParentColumns.of_request(expanded),
        )

    def begin_replay(self, frame: ExpandedFrame) -> ReplaySession:
        return _AtfimReplaySession(self, frame)

    def _serve_parents(
        self,
        cluster: int,
        issue: float,
        angle: float,
        parents: range,
        columns: "_ParentColumns",
    ) -> float:
        """Serve one request: its camera angle and its parents, given as
        row indices into ``columns``."""
        unit = self.units[cluster]
        unit.note_request()
        threshold = self.config.effective_angle_threshold

        # GPU side: generate the (few) parent-texel addresses.
        num_parents = len(parents)
        address_done = unit.generate_addresses(issue, num_parents)

        # Classify each parent against the angle-tagged caches.  Only
        # anisotropic parents carry an angle tag; isotropic ones behave
        # like ordinary cached lines.
        missing: List[int] = []
        child_counts, lines = columns.child_counts, columns.lines
        for parent in parents:
            needs_angle = child_counts[parent] > 1
            result = self.caches.probe(
                cluster,
                lines[parent],
                angle if needs_angle else None,
                threshold if needs_angle else None,
            )
            if result is CacheAccessResult.HIT:
                self.parent_reuses += 1
            elif result is CacheAccessResult.ANGLE_MISS:
                self.parent_recalculations += 1
                missing.append(parent)
            else:
                self.parent_cold_misses += 1
                missing.append(parent)

        if missing:
            parents_ready = self._offload(address_done, missing, columns)
        else:
            parents_ready = address_done

        # GPU side: bilinear/trilinear over the (approximated) parents.
        return unit.filter_texels(parents_ready, num_parents)

    def _offload(
        self, arrival: float, missing: List[int], columns: "_ParentColumns"
    ) -> float:
        """Round-trip the missing parents through the HMC pipeline."""
        packets = self.config.packets
        self.offload_packages += 1

        # Offloading Unit: one compressed package for this fetch's
        # missing parents (they share the first parent's base address).
        request_bytes = packets.parent_texel_request_bytes
        home = columns.lines[missing[0]]
        self.traffic.add_external(TrafficClass.TEXTURE, float(request_bytes))
        delivered = self.hmc.send_request(arrival, home, request_bytes)

        # Parent Texel Buffer admission (backpressure when full).
        admitted = self.parent_buffer.enqueue(delivered)

        # Texel Generator: one address op per child texel.
        total_children = sum(columns.child_counts[parent] for parent in missing)
        self.child_texels_generated += total_children
        generated = self.texel_generator.generate_addresses(admitted, total_children)

        # Child Texel Consolidation: dedup child lines across parents.
        child_lines, bounds = columns.child_lines, columns.child_offsets
        if self.config.consolidation_enabled:
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
        line_bytes = _line_payload_bytes(packets, self.config.texture_compression)
        data_ready = generated
        merging = self.config.consolidation_enabled
        for line in lines:
            merged_ready = (
                self.child_merge_window.lookup(line) if merging else None
            )
            if merged_ready is not None:
                ready = max(generated, merged_ready)
            else:
                ready = self.hmc.internal_read(generated, line, line_bytes)
                self.traffic.add_internal(TrafficClass.TEXTURE, float(line_bytes))
                if merging:
                    self.child_merge_window.insert(line, ready)
                self.child_lines_fetched += 1
            if ready > data_ready:
                data_ready = ready

        # Combination Unit: one filter op per child texel.
        combined = self.combination_unit.filter_texels(data_ready, total_children)

        # Response package back to the GPU, normal bilinear-fetch format.
        response_bytes = packets.parent_texel_response_bytes(len(missing))
        self.traffic.add_external(TrafficClass.TEXTURE, float(response_bytes))
        return self.hmc.send_response(combined, home, response_bytes)

    def activity(self) -> PathActivity:
        activity = PathActivity()
        for unit in self.units:
            activity.gpu_texture.merge(unit.activity)
        activity.memory_texture.merge(self.texel_generator.activity)
        activity.memory_texture.merge(self.combination_unit.activity)
        stats = self.caches.stats()
        activity.l1_accesses = stats.l1_accesses
        activity.l2_accesses = stats.l1_misses + stats.l1_angle_misses
        activity.parent_recalculations = self.parent_recalculations
        activity.parent_reuses = self.parent_reuses
        activity.child_texels_generated = self.child_texels_generated
        activity.child_lines_fetched = self.child_lines_fetched
        return activity

    def cache_stats(self) -> CacheHierarchyStats:
        return self.caches.stats()

    def stat_group(self, name: str = "path") -> "StatGroup":
        group = super().stat_group(name)
        group.adopt(self.hmc.stat_group("memory"))
        stages = group.child("atfim_stages")
        stages.counter("parent_reuses").add(self.parent_reuses)
        stages.counter("parent_recalculations").add(self.parent_recalculations)
        stages.counter("parent_cold_misses").add(self.parent_cold_misses)
        stages.counter("child_texels_generated").add(self.child_texels_generated)
        stages.counter("child_lines_fetched").add(self.child_lines_fetched)
        stages.counter("offload_packages").add(self.offload_packages)
        stages.counter("recalculation_rate").add(self.recalculation_rate())
        return group

    def reset_for_measurement(self) -> None:
        for unit in self.units:
            unit.reset()
        self.caches.reset_for_measurement()
        self.texel_generator.reset()
        self.combination_unit.reset()
        self.parent_buffer.reset()
        self.child_merge_window.reset()
        self.hmc.reset()
        self.parent_reuses = 0
        self.parent_recalculations = 0
        self.parent_cold_misses = 0
        self.child_texels_generated = 0
        self.child_lines_fetched = 0
        self.offload_packages = 0

    def recalculation_rate(self) -> float:
        """Fraction of parent-texel accesses that were angle-forced
        recalculations (the quantity the threshold controls)."""
        total = self.parent_reuses + self.parent_recalculations + self.parent_cold_misses
        if total == 0:
            return 0.0
        return self.parent_recalculations / total


class _ParentColumns(NamedTuple):
    """Per-parent values :meth:`AtfimPath._serve_parents` reads by row:
    line address, child texel count, and the parent's unique child
    lines ``child_lines[child_offsets[p]:child_offsets[p + 1]]``."""

    lines: Sequence[int]
    child_counts: Sequence[int]
    child_offsets: Sequence[int]
    child_lines: Sequence[int]

    @classmethod
    def of_request(cls, expanded: ExpandedRequest) -> "_ParentColumns":
        parents = expanded.parents
        return cls(
            lines=[parent.line_address for parent in parents],
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

    @classmethod
    def of_frame(cls, frame: ExpandedFrame) -> "_ParentColumns":
        return cls(
            lines=frame.parent_lines.tolist(),
            child_counts=frame.child_counts.tolist(),
            child_offsets=frame.child_offsets.tolist(),
            child_lines=frame.child_lines.tolist(),
        )


class _AtfimReplaySession(ReplaySession):
    """Replay session for A-TFIM: each request's camera angle and parent
    rows, read from the frame, go straight to
    :meth:`AtfimPath._serve_parents`."""

    def __init__(self, path: AtfimPath, frame: ExpandedFrame) -> None:
        super().__init__(path, frame)
        columns = _ParentColumns.of_frame(frame)
        angles = frame.camera_angles.tolist()
        offsets = frame.parent_offsets.tolist()
        serve_parents = path._serve_parents

        def serve_one(cluster: int, issue: float, index: int) -> float:
            return serve_parents(
                cluster, issue, angles[index],
                range(offsets[index], offsets[index + 1]), columns,
            )

        self.serve_one = serve_one
