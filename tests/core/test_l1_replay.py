"""The L1 replay form against the per-access cache lookup, probe for
probe.

:class:`~repro.core.paths.L1Replay` decides a whole replay's L1 probes
in array passes; ``tests.reference.cache_lookup``, one probe at a time,
is its oracle.  Each example warms a few caches with a random stream
(so the form starts from random contents, angle tags and cold-fill
logs), then
sends one random stream through the oracle and through the form, and
compares every probe's outcome, each set's final lines in LRU order
with their angle tags, the cold-fill logs, the counters and the
threshold interval.  Streams use few lines per set, so lines are reused
at every stack distance, and angles on a few tag codes, so comparisons
land on, between and across thresholds.  The premise that
makes deciding the L1s up front exact -- their state does not depend on
the order in which requests of different clusters are served -- is
checked on a real frame.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import Design
from repro.core.expansion import RequestExpander
from repro.core.frontend import make_texture_path
from repro.core.paths import (
    ALL_THRESHOLDS,
    L1_ANGLE_MISS,
    L1_FILL,
    L1_HIT,
    L1Replay,
)
from repro.gpu.pipeline import GpuPipeline
from repro.memory.traffic import TrafficMeter
from repro.texture.cache import CacheAccessResult, CacheConfig, TextureCache
from repro.texture.lod import NO_ANGLE, angle_codes, threshold_steps
from tests.conftest import NO_SHRINK
from tests.reference import cache_contents, cache_lookup, cache_set_and_tag

STEP = (math.pi / 2) / 127
"""One step of a 7-bit angle tag."""

CODES = {
    CacheAccessResult.HIT: L1_HIT,
    CacheAccessResult.MISS: L1_FILL,
    CacheAccessResult.ANGLE_MISS: L1_ANGLE_MISS,
}


@st.composite
def cases(draw):
    ways = draw(st.integers(1, 16))
    sets = draw(st.sampled_from([1, 2, 4]))
    clusters = draw(st.integers(1, 3))
    line_count = draw(st.integers(1, 3 * ways * sets))
    probe = st.tuples(
        st.integers(0, clusters - 1),
        st.integers(0, line_count - 1),
        st.booleans(),
        st.integers(0, 6),
    )
    # Runs of one probe put long gaps with few distinct lines between
    # two uses of a line, which a stack distance must not overcount.
    runs = st.lists(st.tuples(probe, st.integers(1, 4)), max_size=40)
    warm, stream = (
        [probe for probe, length in draw(runs) for _ in range(length)]
        for _ in range(2)
    )
    steps = [step for *_, tagged, step in warm + stream if tagged]
    differences = sorted({abs(a - b) for a in steps for b in steps})
    threshold = draw(st.sampled_from(
        [0.0, 1.5 * STEP, math.inf]
        + [difference * STEP for difference in differences]
    ))
    return ways, sets, clusters, warm, stream, threshold


def make_caches(ways, sets, clusters):
    config = CacheConfig(size_bytes=64 * ways * sets, associativity=ways)
    return [TextureCache(config, name=f"l1.{index}")
            for index in range(clusters)]


def lookup(caches, probe, threshold, interval):
    """The oracle's lookup of one probe; narrows ``interval`` (in steps)
    where the lookup compares two angle tags."""
    cluster, line, tagged, step = probe
    cache = caches[cluster]
    address = 64 * line
    if not tagged:
        return cache_lookup(cache, address)
    angle = step * STEP
    set_index, tag = cache_set_and_tag(cache, address)
    stored = dict(cache_contents(cache).get(set_index, [])).get(tag)
    if stored is not None:
        difference = abs(stored - int(angle_codes(angle)))
        if difference > threshold_steps(threshold):
            interval[1] = min(interval[1], difference)
        else:
            interval[0] = max(interval[0], difference)
    return cache_lookup(cache, address, angle, threshold)


def state(caches):
    """Each cache's lines in LRU order with their angle tags, its
    cold-fill logs and its counters."""
    return [
        (
            cache_contents(cache),
            {index: list(log) for index, log in cache._cold_fills.items()
             if log},
            (cache.hits, cache.misses, cache.angle_misses),
        )
        for cache in caches
    ]


class TestL1ReplayMatchesLookup:
    @settings(NO_SHRINK, max_examples=300)
    @given(case=cases())
    @example(case=(
        # A hits after B, C, D and repeats of B: the count of lines
        # between must stop at A's previous use, though E, used before
        # it and after, is still in the set.
        4, 1, 1, [],
        [(0, "EABCDBBAE".index(name), False, 0) for name in "EABCDBBAE"],
        0.0,
    ))
    def test_outcomes_contents_fills_counters_and_interval(self, case):
        ways, sets, clusters, warm, stream, threshold = case
        oracle, replayed = (make_caches(ways, sets, clusters)
                            for _ in range(2))
        for caches in (oracle, replayed):
            for probe in warm:
                lookup(caches, probe, threshold, list(ALL_THRESHOLDS))
        interval = list(ALL_THRESHOLDS)
        expected = [CODES[lookup(oracle, probe, threshold, interval)]
                    for probe in stream]

        columns = np.array([probe for probe in stream], dtype=np.int64)
        columns = columns.reshape(-1, 4)
        angles = angle_codes(columns[:, 3] * STEP)
        angles[columns[:, 2] == 0] = NO_ANGLE
        form = L1Replay(replayed, columns[:, 0], 64 * columns[:, 1],
                        angles, threshold_steps(threshold))
        assert form.outcomes.tolist() == expected
        assert [form.below, form.above] == interval
        form.flush()
        assert state(replayed) == state(oracle)

    @settings(NO_SHRINK, max_examples=100)
    @given(case=cases())
    def test_untagged_streams(self, case):
        """Without angles (the baseline's L1s) every probe is untagged
        and the interval admits every threshold."""
        ways, sets, clusters, warm, stream, _ = case
        untag = [(cluster, line, False, 0) for cluster, line, *_ in warm]
        oracle, replayed = (make_caches(ways, sets, clusters)
                            for _ in range(2))
        for caches in (oracle, replayed):
            for probe in untag:
                lookup(caches, probe, 0.0, list(ALL_THRESHOLDS))
        expected = [CODES[cache_lookup(oracle[cluster], 64 * line)]
                    for cluster, line, *_ in stream]
        columns = np.array([probe[:2] for probe in stream], dtype=np.int64)
        columns = columns.reshape(-1, 2)
        form = L1Replay(replayed, columns[:, 0], 64 * columns[:, 1])
        assert form.outcomes.tolist() == expected
        assert (form.below, form.above) == ALL_THRESHOLDS
        form.flush()
        assert state(replayed) == state(oracle)


def test_lines_too_far_apart_to_pack_one_key():
    """Streams times the span of tags past 2**62 cannot share one int64
    key, and sort by stream and tag apart; the outcomes hold."""
    oracle, replayed = (make_caches(2, 1, 64) for _ in range(2))
    clusters = np.array([63, 63, 5, 63, 63, 63])
    lines = np.array([0, 1 << 62, 0, 0, 64, 1 << 62])
    expected = [CODES[cache_lookup(oracle[cluster], line)]
                for cluster, line in zip(clusters.tolist(), lines.tolist())]
    form = L1Replay(replayed, clusters, lines)
    assert form.outcomes.tolist() == expected == [1, 1, 1, 0, 1, 1]
    form.flush()
    assert state(replayed) == state(oracle)


def replays(workload, scene, trace, frame, design, **overrides):
    """A cold replay of ``frame`` and one from the caches it leaves, as
    ``simulate_frame`` runs them; the L1 state after each, and the order
    in which the scheduler served the requests."""
    config = workload.design_config(design, **overrides)
    path = make_texture_path(config, TrafficMeter())
    pipeline = GpuPipeline(config.gpu)
    served = []
    begin_replay = path.begin_replay

    def recording(frame, clusters):
        session = begin_replay(frame, clusters)
        serve_one = session.serve_one

        def serve(cluster, issue, index):
            served.append(index)
            return serve_one(cluster, issue, index)

        session.serve_one = serve
        return session

    path.begin_replay = recording
    observed = []
    for _ in range(2):
        pipeline.replay_texture_stream(trace, frame, path)
        observed.append(state(path.caches.l1))
        path.reset_for_measurement()
    return observed, served


class TestTimingDoesNotReachTheL1:
    """Why deciding every L1 probe before the replay is exact: a
    cluster's L1 sees only that cluster's requests, in index order, so
    memory timing that reorders the service of requests across clusters
    leaves every L1 as it was.  On doom3-640x480, designs and memories
    that serve the frame in different orders leave identical L1s."""

    @pytest.fixture(scope="class")
    def frame(self, fast_workload_trace):
        scene, trace = fast_workload_trace
        return scene, trace, RequestExpander(scene).expand_frame(trace)

    def test_baseline_and_bpim_leave_the_same_l1s(self, fast_workload,
                                                  frame):
        baseline, baseline_order = replays(fast_workload, *frame,
                                           Design.BASELINE)
        bpim, bpim_order = replays(fast_workload, *frame, Design.B_PIM)
        assert baseline_order != bpim_order
        assert baseline == bpim

    def test_atfim_leaves_the_same_l1s_at_half_the_hmc_bandwidth(
        self, fast_workload, frame
    ):
        hmc = fast_workload.hmc_config()
        halved = dataclasses.replace(
            hmc,
            external_bandwidth_gb_per_s=hmc.external_bandwidth_gb_per_s / 2,
            internal_bandwidth_gb_per_s=hmc.internal_bandwidth_gb_per_s / 2,
        )
        default, default_order = replays(fast_workload, *frame, Design.A_TFIM)
        slow, slow_order = replays(fast_workload, *frame, Design.A_TFIM,
                                   hmc=halved)
        assert default_order != slow_order
        assert default == slow
