"""Bit-identity of the replay scheduler against the scalar reference.

``GpuPipeline.replay_texture_stream`` serves every request, in event
order, through the design's replay session; the one-event-at-a-time
heap scheduler of ``tests/reference.py``, serving each request through
the design's scalar ``serve``, is the reference.  The contract is exact
equality -- not approximate -- across every observable the replay
produces: makespan, the latency histogram (total, count, max,
buckets), per-cluster fragment counts, external memory traffic, unit
activity counters, L1/L2 cache statistics, and the path's whole
flattened ``stat_group()`` (angle misses, A-TFIM reuse/recalculation/
cold-miss counts, child lines, offload packages, memory-side counters),
and the whole state a replay leaves behind in the memory side and the
texture units (:func:`resource_state`): every bandwidth server's clock
and totals, every DRAM bank's open row, clock and counters, per-vault
access counts, request queues, read-merge windows, stage clocks and
both traffic dicts, plus every cache's cold-fill log
(:func:`cold_fills`) and every cache set's lines in LRU order with their
angle tags (:func:`cache_contents`).  Every replay of a sequence is observed, so the
warm-up's state is held to it as well as the measured replay's.
A-TFIM is also held to it across camera-angle thresholds with Child
Texel Consolidation on and off, S-TFIM with two and four clusters per
MTU, and every design across a warm-up -> ``reset_for_measurement`` ->
measured pair of replays on one path, the protocol ``simulate_frame``
runs.  The production replay reads the
columnar ``ExpandedFrame``; the reference can also be handed the list of
per-request ``RequestExpander.expand`` results, so the two expansions are
held to the same replay too.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import Design, stfim
from repro.core.designs import DesignConfig
from repro.core.expansion import ExpandedFrame, RequestExpander
from repro.core.frontend import make_texture_path
from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GpuPipeline
from repro.memory.traffic import TrafficMeter
from repro.render.renderer import Renderer
from repro.texture.cache import CacheConfig
from tests import reference
from tests.conftest import make_tiny_scene

ALL_DESIGNS = (Design.BASELINE, Design.B_PIM, Design.S_TFIM, Design.A_TFIM)
DEPTHS = (1, 2, 64)
DESIGN_POINTS = [(design, {}) for design in ALL_DESIGNS] + [
    (Design.S_TFIM, {"mtu_share": share}) for share in (2, 4)
]
"""Every design, plus S-TFIM with MTUs shared by two and four clusters."""


def point_id(point):
    design, overrides = point
    suffix = "".join(f"-{key}{value}" for key, value in overrides.items())
    return design.value + suffix


def small_gpu(depth):
    return GPUConfig(
        l1_cache=CacheConfig(size_bytes=1024, associativity=4),
        l2_cache=CacheConfig(size_bytes=4096, associativity=8),
        max_inflight_texture_requests=depth,
    )


@pytest.fixture(scope="module")
def frame():
    scene, camera = make_tiny_scene()
    renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
    trace = renderer.trace_only(scene, camera).trace
    expander = RequestExpander(scene)
    return {
        "trace": trace,
        "expander": expander,
        "aniso": expander.expand_frame(trace),
        "iso": expander.expand_frame(trace, aniso_enabled=False),
        "aniso_list": [expander.expand(r) for r in trace.requests],
        "iso_list": [expander.expand(single_probe(r)) for r in trace.requests],
    }


def single_probe(request):
    """``request`` with anisotropic filtering disabled: one probe."""
    footprint = dataclasses.replace(request.footprint, probes=1)
    return dataclasses.replace(request, footprint=footprint)


def server_state(server):
    return (server.name, server.next_free, server.total_bytes,
            server.total_requests, server.busy_cycles)


def bank_state(bank):
    return (bank.open_row, bank.next_free, bank.row_hits, bank.row_misses,
            bank.busy_cycles)


def unit_state(unit):
    activity = unit.activity
    return tuple(
        (stage.next_issue, stage.busy_cycles, stage.total_ops)
        for stage in (unit.address_stage, unit.filter_stage)
    ) + ((activity.requests, activity.address_ops, activity.filter_ops),)


def resource_state(path, traffic):
    """Everything a replay leaves in the path's memory side and units.

    Links, TSVs, the GDDR5 bus and the L2 port (clock, bytes, requests,
    busy cycles); every DRAM bank (open row, clock, row hits and misses,
    busy cycles); per-vault accesses and the memories' read counters;
    the request queues (clock, count, stall cycles); the read-merge
    windows (LRU contents in order, merged count); every texture unit's
    stages and activity; and both traffic dicts, every class.
    """
    servers, banks, state = [], [], {}
    hmc = getattr(path, "hmc", None)
    if hmc is not None:
        servers += [hmc.tx_link, hmc.rx_link]
        servers += [vault.tsv for vault in hmc.vaults]
        banks += [bank for vault in hmc.vaults for bank in vault.device.banks]
        state["vault_accesses"] = [vault.accesses for vault in hmc.vaults]
        state["hmc_reads"] = (hmc.external_reads, hmc.external_writes,
                              hmc.internal_reads)
    gddr5 = getattr(path, "gddr5", None)
    if gddr5 is not None:
        servers.append(gddr5.bus)
        banks += [bank for channel in gddr5.channels for bank in channel.banks]
        state["gddr5_reads"] = (gddr5.reads, gddr5.writes)
    caches = getattr(path, "caches", None)
    if caches is not None:
        servers.append(caches.l2_port)
    queues = list(getattr(path, "queues", []))
    if hasattr(path, "parent_buffer"):
        queues.append(path.parent_buffer)
    windows = list(getattr(path, "merge_windows", []))
    if hasattr(path, "child_merge_window"):
        windows.append(path.child_merge_window)
    units = list(getattr(path, "units", [])) + list(getattr(path, "mtus", []))
    for name in ("texel_generator", "combination_unit"):
        if hasattr(path, name):
            units.append(getattr(path, name))
    state["servers"] = [server_state(server) for server in servers]
    state["banks"] = [bank_state(bank) for bank in banks]
    state["queues"] = [
        (queue.name, queue._occupancy_free_at, queue.total_enqueued,
         queue.total_stall_cycles)
        for queue in queues
    ]
    state["windows"] = [
        (list(window._lines.items()), window.merged) for window in windows
    ]
    state["units"] = [unit_state(unit) for unit in units]
    state["traffic"] = (
        {cls.value: value for cls, value in traffic.external.items()},
        {cls.value: value for cls, value in traffic.internal.items()},
    )
    return state


def cold_fills(path):
    """Every cache's non-empty cold-fill logs, which decide
    ``warm_start_inert``: a session must log what the reference's
    ``cache_lookup`` logs, in the same order."""
    caches = getattr(path, "caches", None)
    if caches is None:
        return None
    return [
        {index: list(log) for index, log in cache._cold_fills.items() if log}
        for cache in caches.l1 + [caches.l2]
    ]


def cache_contents(path):
    """Every cache's non-empty sets: their lines in LRU order, oldest
    first, each with its angle tag.  A session writes these back in
    ``finish``; the next replay starts from them."""
    caches = getattr(path, "caches", None)
    if caches is None:
        return None
    return [
        {index: [(tag, line.angle) for tag, line in lines.items()]
         for index, lines in cache._sets.items() if lines}
        for cache in caches.l1 + [caches.l2]
    ]


def observe(path, traffic, makespan, histogram, per_cluster):
    """Every replay observable, collapsed into one comparable dict."""
    activity = path.activity()
    caches = path.cache_stats()
    return {
        "makespan": makespan,
        "latency_total": float(histogram.total),
        "latency_count": histogram.count,
        "latency_max": float(histogram.max_latency),
        "buckets": tuple(histogram.buckets),
        "per_cluster": tuple(per_cluster),
        "external_bytes": float(traffic.external_total),
        "requests": (activity.gpu_texture.requests
                     + activity.memory_texture.requests),
        "address_ops": float(activity.gpu_texture.address_ops
                             + activity.memory_texture.address_ops),
        "filter_ops": float(activity.gpu_texture.filter_ops
                            + activity.memory_texture.filter_ops),
        "l1_hits": caches.l1_hits,
        "l1_misses": caches.l1_misses,
        "l2_hits": caches.l2_hits,
        "l2_misses": caches.l2_misses,
        "stat_group": dict(path.stat_group().flatten()),
        "resources": resource_state(path, traffic),
        "cold_fills": cold_fills(path),
        "cache_contents": cache_contents(path),
    }


def replay(design, depth, trace, expanded, batched, passes=1, **overrides):
    """Replay ``expanded`` ``passes`` times through one path, resetting
    for measurement in between; observe every pass.  ``batched``
    replays through the production scheduler, otherwise through the
    reference."""
    return replay_frames(design, depth, [(trace, expanded)] * passes,
                         batched, **overrides)


def replay_frames(design, depth, frames, batched, **overrides):
    """Replay each ``(trace, expanded)`` in turn through one path,
    resetting for measurement in between; observe each replay before
    the reset that follows it.  One replay's observation is returned
    as is, several as a list."""
    gpu = small_gpu(depth)
    traffic = TrafficMeter()
    path = make_texture_path(
        DesignConfig(design=design, gpu=gpu, **overrides), traffic
    )
    pipeline = GpuPipeline(gpu)
    observed = []
    for index, (trace, expanded) in enumerate(frames):
        if index:
            path.reset_for_measurement()
            traffic.reset()
        if batched:
            result = pipeline.replay_texture_stream(trace, expanded, path)
        else:
            result = reference.replay_texture_stream(
                pipeline, trace, expanded, path
            )
        observed.append(observe(path, traffic, *result))
    return observed[0] if len(observed) == 1 else observed


def pick_expansions(design, frame):
    config = DesignConfig(design=design, gpu=small_gpu(4))
    return frame["aniso"] if config.aniso_enabled else frame["iso"]


class TestBitIdentity:
    @pytest.mark.parametrize("point", DESIGN_POINTS, ids=point_id)
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_batched_matches_scalar_oracle(self, frame, point, depth):
        """A warm-up and a measured replay, each observed in full."""
        design, overrides = point
        expanded = pick_expansions(design, frame)
        scalar = replay(design, depth, frame["trace"], expanded, False,
                        passes=2, **overrides)
        batched = replay(design, depth, frame["trace"], expanded, True,
                         passes=2, **overrides)
        assert batched == scalar

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    @pytest.mark.parametrize("filtering", ("aniso", "iso"))
    def test_frame_replay_matches_scalar_over_list(
        self, frame, design, filtering
    ):
        """The columnar frame, replayed by the production scheduler,
        against the reference over the per-request scalar expansions."""
        scalar = replay(
            design, 4, frame["trace"], frame[f"{filtering}_list"], False
        )
        batched = replay(design, 4, frame["trace"], frame[filtering], True)
        assert batched == scalar

    @pytest.mark.parametrize(
        "threshold", (0.0, DesignConfig().angle_threshold, math.pi / 2),
        ids=("zero", "default", "half-pi"),
    )
    @pytest.mark.parametrize("consolidation", (True, False),
                             ids=("merge", "no-merge"))
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_atfim_thresholds_and_consolidation(
        self, frame, threshold, consolidation, depth
    ):
        """The angle-miss and consolidation branches of A-TFIM."""
        overrides = dict(angle_threshold=threshold,
                         consolidation_enabled=consolidation)
        scalar = replay(Design.A_TFIM, depth, frame["trace"], frame["aniso"],
                        False, **overrides)
        batched = replay(Design.A_TFIM, depth, frame["trace"],
                         frame["aniso"], True, **overrides)
        assert batched == scalar

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_mtu_queue_backpressure(self, frame, depth, monkeypatch):
        """MTU request queues short enough to fill, so the stall
        protocol delays admissions: four clusters share each MTU."""
        monkeypatch.setattr(stfim, "MTU_REQUEST_QUEUE_DEPTH", 2)
        expanded = pick_expansions(Design.S_TFIM, frame)
        scalar = replay(Design.S_TFIM, depth, frame["trace"], expanded,
                        False, passes=2, mtu_share=4)
        batched = replay(Design.S_TFIM, depth, frame["trace"], expanded,
                         True, passes=2, mtu_share=4)
        assert batched == scalar
        stalls = [queue[3] for queue in scalar[-1]["resources"]["queues"]]
        assert min(stalls) > 0

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    def test_measured_replay_after_warmup(self, frame, design):
        """Warm-up, reset, measured replay on one path: the second replay
        reuses the path's per-frame precompute and the warm caches."""
        expanded = pick_expansions(design, frame)
        scalar = replay(design, 4, frame["trace"], expanded, False, passes=2)
        batched = replay(design, 4, frame["trace"], expanded, True, passes=2)
        assert batched == scalar

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    def test_next_frame_after_warm_caches(self, frame, design):
        """A different frame replayed on the warm path, as
        ``simulate_sequence`` does: nothing of the first frame's
        per-frame precompute may leak into the second."""
        trace = frame["trace"]
        suffix = reference.trace_from_requests(
            trace.requests[len(trace) // 2:],
            trace.width, trace.height, trace.tile_size,
        )
        frames = [
            (trace, pick_expansions(design, frame)),
            (suffix, frame["expander"].expand_frame(suffix)),
        ]
        scalar = replay_frames(design, 4, frames, False)
        batched = replay_frames(design, 4, frames, True)
        assert batched == scalar


class TestDegenerateStreams:
    def empty_trace(self):
        return reference.trace_from_requests([], 48, 36, tile_size=4)

    @pytest.mark.parametrize("batched", (False, True))
    def test_empty_trace(self, batched):
        result = replay(
            Design.BASELINE, 4, self.empty_trace(), [], batched
        )
        assert result["latency_count"] == 0
        assert result["makespan"] == 0.0

    def test_empty_trace_modes_agree(self):
        scalar = replay(Design.BASELINE, 4, self.empty_trace(), [], False)
        batched = replay(Design.BASELINE, 4, self.empty_trace(), [], True)
        assert batched == scalar

    @pytest.mark.parametrize("count", (1, 3))
    def test_tiny_prefixes_agree(self, frame, count):
        trace = frame["trace"]
        prefix = reference.trace_from_requests(
            trace.requests[:count], trace.width, trace.height, trace.tile_size
        )
        expanded = frame["expander"].expand_frame(prefix)
        scalar = replay(Design.BASELINE, 1, prefix, expanded, False)
        batched = replay(Design.BASELINE, 1, prefix, expanded, True)
        assert batched == scalar
        assert batched["latency_count"] == count

    def test_depth_one_serialises_each_cluster(self, frame):
        """depth=1 gates every request on its cluster's last completion."""
        expanded = pick_expansions(Design.BASELINE, frame)
        scalar = replay(Design.BASELINE, 1, frame["trace"], expanded, False)
        batched = replay(Design.BASELINE, 1, frame["trace"], expanded, True)
        assert batched == scalar


def serve_all(path, expanded):
    """A session on ``expanded`` that has served every request from
    cluster 0, in index order."""
    session = path.begin_replay(expanded, np.zeros(len(expanded), dtype=int))
    for index in range(len(expanded)):
        session.serve_one(0, float(index), index)
    return session


class TestSessionContract:
    def test_finish_flushes_counters(self, frame):
        """Counters observed before finish() must not include the session."""
        gpu = small_gpu(4)
        for design in (Design.BASELINE, Design.A_TFIM):
            expanded = pick_expansions(design, frame)
            pair = ExpandedFrame.from_requests([expanded[0], expanded[1]])
            traffic = TrafficMeter()
            path = make_texture_path(
                DesignConfig(design=design, gpu=gpu), traffic
            )
            session = path.begin_replay(pair, np.array([0, 1]))
            session.serve_one(0, 0.0, 0)
            session.serve_one(1, 0.0, 1)
            before = path.activity()
            requests_before = (before.gpu_texture.requests
                               + before.memory_texture.requests)
            session.finish()
            after = path.activity()
            requests_after = (after.gpu_texture.requests
                              + after.memory_texture.requests)
            assert requests_after == requests_before + 2, design

    @pytest.mark.parametrize(
        "design", (Design.BASELINE, Design.S_TFIM, Design.A_TFIM),
        ids=lambda d: d.value,
    )
    @pytest.mark.parametrize("served", ([0], [0, 1, 1, 2]),
                             ids=("skipped", "repeated"))
    def test_finish_refuses_a_replay_that_did_not_serve_every_request_once(
        self, frame, design, served
    ):
        """Each request's L1 outcomes were decided when the session
        opened, so a replay that skipped or repeated one is refused
        before anything is written back."""
        expanded = pick_expansions(design, frame)
        triple = ExpandedFrame.from_requests([expanded[i] for i in range(3)])
        path = make_texture_path(
            DesignConfig(design=design, gpu=small_gpu(4)), TrafficMeter()
        )
        session = path.begin_replay(triple, np.zeros(3, dtype=int))
        for issue, index in enumerate(served):
            session.serve_one(0, float(issue), index)
        with pytest.raises(RuntimeError, match="every request once"):
            session.finish()
        assert path.activity().gpu_texture.requests == 0
        assert path.activity().memory_texture.requests == 0

    @pytest.mark.parametrize(
        "design", (Design.BASELINE, Design.S_TFIM, Design.A_TFIM),
        ids=lambda d: d.value,
    )
    def test_columns_handed_to_the_next_replay_only(self, frame, design):
        """A replay leaves its columns for the next replay of the same
        frame, which takes them: afterwards the path holds none."""
        expanded = pick_expansions(design, frame)
        gpu = small_gpu(4)
        path = make_texture_path(
            DesignConfig(design=design, gpu=gpu), TrafficMeter()
        )
        first = serve_all(path, expanded)
        first.finish()
        assert path._column_cache[0] is expanded
        second = serve_all(path, expanded)
        second.finish()
        assert path._column_cache is None
