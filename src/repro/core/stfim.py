"""S-TFIM: all texture units moved into the HMC logic layer (section IV).

Every texture request becomes a live-texture package (4x a read request)
over the transmit link; the Memory Texture Unit (MTU) in the logic layer
fetches texels directly from the vaults (no texture caches anywhere --
the MTU "can directly access the entire DRAM dies as its local memory"),
filters, and ships the filtered sample back over the receive link.

The design's fatal flaw, which this model reproduces organically: the GPU
no longer caches texels, so *every* request's full texel set is re-read
from DRAM, and every request pays two link crossings of oversized
packages.  Backpressure from the bounded texture request queue (capacity
256, with the stall/resume protocol) appears as admission delay.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame
from repro.core.paths import (
    PathActivity,
    ReadMergeWindow,
    ReplaySession,
    TexturePath,
)
from repro.gpu.config import MTU_TEXTURE_UNIT
from repro.gpu.texunit import TextureUnit
from repro.memory.hmc import HybridMemoryCube
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.sim.resources import RequestQueue
from repro.units import Cycles

MTU_REQUEST_QUEUE_DEPTH = 256
"""Texture request queue entries per MTU (matches the parent texel
buffer sizing rationale of section V-D)."""

READ_MERGE_WINDOW_LINES = 64
"""Per-MTU read-merge window size: repeated reads of a line already in
the vault controller's request queue / the MTU's staging registers are
coalesced into one DRAM burst (see
:class:`repro.core.paths.ReadMergeWindow`)."""


class StfimPath(TexturePath):
    """The S-TFIM texture path."""

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        super().__init__(config, traffic)
        if config.design is not Design.S_TFIM:
            raise ValueError(f"wrong path for design {config.design}")
        self.hmc = HybridMemoryCube(config.hmc)
        num_mtus = config.gpu.num_clusters // config.mtu_share
        if num_mtus == 0:
            raise ValueError("MTU sharing leaves no MTUs")
        self.mtus: List[TextureUnit] = [
            TextureUnit(f"mtu.{index}", MTU_TEXTURE_UNIT) for index in range(num_mtus)
        ]
        self.queues: List[RequestQueue] = [
            RequestQueue(
                name=f"mtu.{index}.queue",
                capacity=MTU_REQUEST_QUEUE_DEPTH,
                drain_rate=1.0,
            )
            for index in range(num_mtus)
        ]
        self.merge_windows: List[ReadMergeWindow] = [
            ReadMergeWindow(READ_MERGE_WINDOW_LINES) for _ in range(num_mtus)
        ]

    def _mtu_index(self, cluster: int) -> int:
        return cluster // self.config.mtu_share

    def begin_replay(self, frame: ExpandedFrame) -> ReplaySession:
        return _StfimReplaySession(self, frame)

    def _serve_lines(
        self, cluster: int, issue: float, num_texels: int, lines: Sequence[int]
    ) -> float:
        """Serve one request: its texel count and unique texel lines."""
        packets = self.config.packets
        index = self._mtu_index(cluster)
        mtu = self.mtus[index]
        mtu.note_request()

        # Shader -> MTU: live-texture package over the transmit link,
        # gated by the MTU's bounded request queue (stall protocol).
        admitted = self.queues[index].enqueue(issue)
        request_bytes = packets.texture_request_bytes
        self.traffic.add_external(TrafficClass.TEXTURE, float(request_bytes))
        delivered = self.hmc.send_request(admitted, request_bytes)

        # MTU pipeline: address generation, vault fetches, filtering.
        address_done = mtu.generate_addresses(delivered, num_texels)
        data_ready = address_done
        line_bytes = packets.cache_line_bytes
        window = self.merge_windows[index]
        for line in lines:
            merged_ready = window.lookup(line)
            if merged_ready is not None:
                ready = max(address_done, merged_ready)
            else:
                ready = self.hmc.internal_read(address_done, line, line_bytes)
                self.traffic.add_internal(TrafficClass.TEXTURE, float(line_bytes))
                window.insert(line, ready)
            if ready > data_ready:
                data_ready = ready
        filtered = mtu.filter_texels(data_ready, num_texels)

        # MTU -> shader: one filtered sample back over the receive link.
        response_bytes = packets.texture_response_bytes(samples=1)
        self.traffic.add_external(TrafficClass.TEXTURE, float(response_bytes))
        return self.hmc.send_response(filtered, response_bytes)

    def activity(self) -> PathActivity:
        activity = PathActivity()
        for mtu in self.mtus:
            activity.memory_texture.merge(mtu.activity)
        return activity

    @property
    def total_stall_cycles(self) -> Cycles:
        return sum(queue.total_stall_cycles for queue in self.queues)

    def stat_group(self, name: str = "path") -> "StatGroup":
        group = super().stat_group(name)
        group.adopt(self.hmc.stat_group("memory"))
        stages = group.child("mtu_stages")
        stages.counter("queue_stall_cycles").add(self.total_stall_cycles)
        stages.counter("merged_line_reads").add(
            sum(window.merged for window in self.merge_windows)
        )
        return group

    def reset_for_measurement(self) -> None:
        for mtu in self.mtus:
            mtu.reset()
        for queue in self.queues:
            queue.reset()
        for window in self.merge_windows:
            window.reset()
        self.hmc.reset()


class _StfimReplaySession(ReplaySession):
    """Replay session for S-TFIM: each request's texel count and line
    slice, read from the frame, go straight to
    :meth:`StfimPath._serve_lines`."""

    def __init__(self, path: StfimPath, frame: ExpandedFrame) -> None:
        texels = frame.texels.tolist()
        offsets = frame.line_offsets.tolist()
        lines = frame.lines.tolist()
        serve_lines = path._serve_lines

        def serve_one(cluster: int, issue: float, index: int) -> float:
            return serve_lines(
                cluster, issue, texels[index],
                lines[offsets[index]:offsets[index + 1]],
            )

        self.serve_one = serve_one
