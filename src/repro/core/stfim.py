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

from typing import List

import numpy as np

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame
from repro.core.paths import (
    MergeWindowReplay,
    PathActivity,
    QueueReplay,
    ReadMergeWindow,
    ReplaySession,
    TexturePath,
    UnitReplayState,
    check_frame,
    check_served,
)
from repro.gpu.config import MTU_TEXTURE_UNIT
from repro.gpu.texunit import TextureUnit
from repro.memory.hmc import HybridMemoryCube
from repro.memory.replay import HmcReplay, require_positive_sizes
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.sim.resources import RequestQueue
from repro.texture.address import LINE_BYTES
from repro.units import Bytes, Cycles

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

    def begin_replay(self, frame: ExpandedFrame,
                     clusters: np.ndarray) -> ReplaySession:
        return _StfimReplaySession(self, frame)

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


class _StfimColumns:
    """Per-trace columns of the S-TFIM replay session: request ``i``'s
    texel count ``texels[i]`` and unique texel lines
    ``lines[offsets[i]:offsets[i + 1]]``, as python lists, checked once
    per frame (:func:`~repro.core.paths.check_frame`)."""

    __slots__ = ("texels", "offsets", "lines")

    def __init__(self, frame: ExpandedFrame) -> None:
        check_frame(frame.texels, frame.lines)
        self.texels = frame.texels.tolist()
        self.offsets = frame.line_offsets.tolist()
        self.lines = frame.lines.tolist()


class _StfimReplaySession(ReplaySession):
    """Replay session for S-TFIM.

    Built as a closure over per-trace columns and local state, as
    :class:`~repro.core.baseline._GpuReplaySession` is, and serving each
    request operation for operation as the scalar reference in
    ``tests/reference.py`` does, with no call into a live object:

    * shader -> MTU: the MTU's bounded request queue
      (:class:`~repro.core.paths.QueueReplay`), then the live-texture
      package over the transmit link;
    * the MTU's address stage (:class:`~repro.core.paths.UnitReplayState`
      over the MTUs), each unique texel line through the MTU's
      read-merge window (:class:`~repro.core.paths.MergeWindowReplay`)
      or, on a miss, a vault read, then the MTU's filter stage;
    * MTU -> shader: one filtered sample over the receive link.

    The links and vaults are :class:`~repro.memory.replay.HmcReplay`'s.
    Every piece of state is seeded from the live objects, folded locally
    in service order and written back by ``finish``.  That includes the
    texture bytes, external and internal: ``finish`` assigns the meter's
    texture entries, which is exact because nothing else adds texture
    bytes while a session is open.
    """

    def __init__(self, path: StfimPath, frame: ExpandedFrame) -> None:
        columns = path._columns_for(frame, lambda: _StfimColumns(frame))
        texels = columns.texels
        offsets = columns.offsets
        lines = columns.lines
        packets = path.config.packets
        request_bytes = packets.texture_request_bytes
        response_bytes = packets.texture_response_bytes(samples=1)
        require_positive_sizes(request_bytes, response_bytes)
        share = path.config.mtu_share
        served = bytearray(len(texels))

        units = UnitReplayState(path.mtus)
        requests = units.requests
        generate_addresses = units.generate_addresses
        filter_texels = units.filter_texels
        queues = QueueReplay(path.queues)
        enqueue = queues.enqueue
        memory = HmcReplay(path.hmc)
        send_request, send_response = memory.send_request, memory.send_response
        internal_read = memory.internal_read
        traffic = path.traffic
        external_bytes = traffic.external[TrafficClass.TEXTURE]
        internal_bytes = traffic.internal[TrafficClass.TEXTURE]

        def fetch(arrival: float, line: int) -> float:
            nonlocal internal_bytes
            internal_bytes += LINE_BYTES
            return internal_read(arrival, line, LINE_BYTES)

        windows = MergeWindowReplay(path.merge_windows, fetch)
        read = windows.read

        def serve_one(cluster: int, issue: float, index: int) -> float:
            nonlocal external_bytes
            served[index] += 1
            mtu = cluster // share
            requests[mtu] += 1
            admitted = enqueue(mtu, issue)
            external_bytes += request_bytes
            delivered = send_request(admitted, request_bytes)
            num_texels = texels[index]
            address_done = generate_addresses(mtu, delivered, num_texels)
            data_ready = address_done
            for k in range(offsets[index], offsets[index + 1]):
                ready = read(mtu, address_done, lines[k])
                if ready > data_ready:
                    data_ready = ready
            filtered = filter_texels(mtu, data_ready, num_texels)
            external_bytes += response_bytes
            return send_response(filtered, response_bytes)

        def finish() -> None:
            check_served(served)
            units.flush()
            queues.flush()
            windows.flush()
            memory.flush()
            traffic.external[TrafficClass.TEXTURE] = Bytes(external_bytes)
            traffic.internal[TrafficClass.TEXTURE] = Bytes(internal_bytes)

        self.serve_one = serve_one
        self.finish = finish
