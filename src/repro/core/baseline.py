"""Baseline and B-PIM texture paths: full filtering on the host GPU.

The two designs share one path implementation; they differ only in the
memory system behind the texture caches (GDDR5 for the baseline, HMC
external links for B-PIM -- section III's drop-in replacement).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame
from repro.core.paths import (
    CacheHierarchy,
    GpuReplayColumns,
    L1Replay,
    PathActivity,
    ReplaySession,
    TexturePath,
    UnitReplayState,
    _set_tables,
    check_served,
)
from repro.gpu.texunit import TextureUnit
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import HybridMemoryCube
from repro.memory.replay import Gddr5Replay, HmcReplay, require_positive_sizes
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.texture.cache import _Line
from repro.units import Bytes, Cycles


class GpuFilteringPath(TexturePath):
    """Texture filtering entirely on the GPU (baseline / B-PIM).

    Per request: the texture unit generates all conventional-order texel
    addresses, fetches each unique cache line through L1 -> L2 -> memory,
    and filters all texels once the last line arrives.
    """

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        super().__init__(config, traffic)
        if config.design not in (Design.BASELINE, Design.B_PIM):
            raise ValueError(f"wrong path for design {config.design}")
        gpu = config.gpu
        self.units: List[TextureUnit] = [
            TextureUnit(f"tu.{cluster}", gpu.texture_unit)
            for cluster in range(gpu.num_clusters)
        ]
        self.caches = CacheHierarchy(config, traffic)
        if config.design is Design.BASELINE:
            self.gddr5: Optional[Gddr5Memory] = Gddr5Memory(config.gddr5)
            self.hmc: Optional[HybridMemoryCube] = None
        else:
            self.hmc = HybridMemoryCube(config.hmc)
            self.gddr5 = None

    def begin_replay(self, frame: ExpandedFrame,
                     clusters: np.ndarray) -> "_GpuReplaySession":
        return _GpuReplaySession(self, frame, clusters)

    def activity(self) -> PathActivity:
        activity = PathActivity()
        for unit in self.units:
            activity.gpu_texture.merge(unit.activity)
        stats = self.caches.stats()
        activity.l1_accesses = stats.l1_accesses
        activity.l2_accesses = stats.l1_misses + stats.l1_angle_misses
        return activity

    def stat_group(self, name: str = "path") -> "StatGroup":
        group = super().stat_group(name)
        if self.gddr5 is not None:
            group.adopt(self.gddr5.stat_group("memory"))
        if self.hmc is not None:
            group.adopt(self.hmc.stat_group("memory"))
        return group

    def reset_for_measurement(self) -> None:
        for unit in self.units:
            unit.reset()
        self.caches.reset_for_measurement()
        if self.gddr5 is not None:
            self.gddr5.reset()
        if self.hmc is not None:
            self.hmc.reset()


class _GpuReplaySession(ReplaySession):
    """Replay session for the baseline/B-PIM path.

    ``serve_one`` is built as a closure in ``__init__`` so that every
    per-trace constant and every piece of mutable timing state is a cell
    variable rather than an attribute: the scheduler calls it once per
    request, so per-call attribute-to-local hoisting would cost more
    than the serving arithmetic itself.

    The serving arithmetic is the scalar reference's call chain
    (texture-unit stages, L1 -> L2 -> memory lookup, L2 port, line fill)
    operation for operation, with no call into a live object.  Every L1
    probe is decided when the session opens (:class:`~repro.core.paths.L1Replay`),
    so a request visits only its rows that miss L1: an L1 hit is ready
    at the request's address time, which never exceeds its data-ready
    time, and touches nothing else.  The units are a
    :class:`~repro.core.paths.UnitReplayState`, the L2 lookup (with its
    cold-fill log) and the L2 port are inlined, and a line fill is the
    replay form of ``Gddr5Memory.read`` (baseline) or
    ``HybridMemoryCube.external_read`` (B-PIM) from
    :mod:`repro.memory.replay`.  Every piece of state is seeded from
    the live objects, folded locally in service order (so float
    accumulators reproduce the scalar ``+=`` sequence bit for bit), and
    written back by ``finish``.  That includes the frame's texture
    bytes: ``finish`` assigns the meter's texture entry, which is exact
    because nothing else adds texture bytes while a session is open.
    """

    def __init__(self, path: "GpuFilteringPath", frame: ExpandedFrame,
                 clusters: np.ndarray) -> None:
        columns = path._columns_for(frame, lambda: GpuReplayColumns(
            path.config.gpu, frame.texels, frame.line_offsets, frame.lines
        ))
        caches = path.caches
        l1 = L1Replay(caches.l1, clusters[columns.requests], columns.lines)
        offsets, missed = columns.missed(l1.outcomes)
        texels = columns.texels
        lines = columns.addresses[missed].tolist()
        l2_set_col = columns.l2_set[missed].tolist()
        l2_tag_col = columns.l2_tag[missed].tolist()
        l2_assoc = columns.l2_assoc
        del missed
        served = bytearray(len(texels))

        packets = path.config.packets
        request_bytes = packets.read_request_bytes
        payload_bytes = packets.cache_line_bytes
        response_bytes = payload_bytes + packets.header_bytes
        require_positive_sizes(request_bytes, payload_bytes)
        line_traffic = float(request_bytes + response_bytes)
        if path.gddr5 is not None:
            memory = Gddr5Replay(path.gddr5)
            gddr5_read = memory.read

            def fill_line(arrival: float, address: int) -> float:
                return gddr5_read(arrival, address, payload_bytes)
        else:
            memory = HmcReplay(path.hmc)
            external_read = memory.external_read

            def fill_line(arrival: float, address: int) -> float:
                return external_read(
                    arrival, address, request_bytes, response_bytes
                )
        traffic = path.traffic
        texture_bytes = traffic.external[TrafficClass.TEXTURE]

        state = UnitReplayState(path.units)
        generate_addresses = state.generate_addresses
        filter_texels = state.filter_texels
        requests_delta = state.requests
        l2_table, l2_fills = _set_tables(caches.l2)
        l2_hits = caches.l2.hits
        l2_misses = caches.l2.misses
        port = caches.l2_port
        port_next = port._next_free
        port_bytes = port.total_bytes
        port_requests = port.total_requests
        port_busy = port.busy_cycles
        port_line_bytes = caches.line_bytes
        port_occ = port_line_bytes / port.bytes_per_cycle
        port_latency = port.latency
        make_line = _Line

        def serve_one(cluster: int, issue: float, index: int) -> float:
            nonlocal port_next, port_bytes, port_requests, port_busy
            nonlocal l2_hits, l2_misses, texture_bytes
            served[index] += 1
            requests_delta[cluster] += 1
            num_texels = texels[index]
            address_done = generate_addresses(cluster, issue, num_texels)
            data_ready = address_done
            for k in range(offsets[index], offsets[index + 1]):
                cache_set = l2_table[l2_set_col[k]]
                tag = l2_tag_col[k]
                if tag in cache_set:
                    cache_set.move_to_end(tag)
                    l2_hits += 1
                    start = (
                        address_done
                        if address_done > port_next
                        else port_next
                    )
                    port_next = start + port_occ
                    port_bytes += port_line_bytes
                    port_requests += 1
                    port_busy += port_occ
                    ready = port_next + port_latency
                else:
                    if len(cache_set) >= l2_assoc:
                        cache_set.popitem(last=False)
                    else:
                        l2_fills[l2_set_col[k]].append(tag)
                    cache_set[tag] = make_line(tag)
                    l2_misses += 1
                    ready = fill_line(address_done, lines[k])
                    texture_bytes += line_traffic
                if ready > data_ready:
                    data_ready = ready
            return filter_texels(cluster, data_ready, num_texels)

        def finish() -> None:
            check_served(served)
            l1.flush()
            state.flush()
            memory.flush()
            traffic.external[TrafficClass.TEXTURE] = Bytes(texture_bytes)
            caches.l2.hits = l2_hits
            caches.l2.misses = l2_misses
            port._next_free = Cycles(port_next)
            port.total_bytes = Bytes(port_bytes)
            port.total_requests = port_requests
            port.busy_cycles = Cycles(port_busy)

        self.serve_one = serve_one
        self.finish = finish
