"""The L2 inlined in the replay sessions against the reference replay.

The baseline/B-PIM session (``_GpuReplaySession``) and the A-TFIM one
(``_AtfimReplaySession``) probe the shared L2, and the baseline/B-PIM
one occupies its port, inline: the L2 sees the clusters' L1 misses in
service order, which timing decides (DESIGN.md section 5 says why it
has no replay form of its own).  Each example builds a small random
frame by hand, serves every request from cluster 0 in index order at
random issue times through the production session and, on a twin path,
through the reference's ``serve``, and compares each completion, the
L2's hits, misses and angle misses, each L2 set's lines in LRU order
with their angle tags, its cold-fill log, and the L2 port's clock,
bytes, requests and busy cycles.  The L1s hold one or two lines a set,
so most rows miss them and reach the L2.  For A-TFIM a rerun at either
end of the path's threshold interval (a range of step counts) then
leaves every counter and tag as the run left them: the interval's
definition.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame, ExpandedRequest, ParentTexel
from repro.core.frontend import make_texture_path
from repro.gpu.config import GPUConfig
from repro.memory.traffic import TrafficMeter
from repro.texture.cache import CacheConfig
from repro.texture.lod import threshold_steps
from tests import reference
from tests.conftest import NO_SHRINK
from tests.gpu.test_replay_batch import cache_contents, cold_fills, server_state

STEP = (math.pi / 2) / 127
"""One step of a 7-bit angle tag."""


def cache(sets, ways):
    return CacheConfig(size_bytes=64 * sets * ways, associativity=ways)


@st.composite
def cases(draw):
    """A design, a GPU with small caches, a threshold, and a frame's
    requests: ``(angle step, lines, probes, issue gap)`` each."""
    design = draw(st.sampled_from([Design.BASELINE, Design.B_PIM,
                                   Design.A_TFIM]))
    l2_sets = draw(st.sampled_from([1, 2, 4]))
    l2_ways = draw(st.sampled_from([1, 2, 4]))
    gpu = GPUConfig(
        l1_cache=cache(draw(st.sampled_from([1, 2])),
                       draw(st.sampled_from([1, 2]))),
        l2_cache=cache(l2_sets, l2_ways),
    )
    pool = draw(st.integers(1, 3 * l2_sets * l2_ways + 1))
    line = st.integers(0, pool - 1).map(lambda index: 64 * index)
    requests = draw(st.lists(
        st.tuples(st.integers(0, 6), st.lists(line, max_size=6),
                  st.sampled_from([1, 4]), st.floats(0, 40)),
        min_size=1, max_size=30,
    ))
    threshold = draw(st.sampled_from([0.0, 1.5 * STEP, 2.5 * STEP,
                                      math.inf]))
    return design, gpu, threshold, requests


def rows(design, requests):
    """The frame's per-request expansions: conventional lines for the
    GPU-filtering designs, parents (each with one child line) for
    A-TFIM."""
    expanded = []
    for step, lines, probes, _ in requests:
        if design is Design.A_TFIM:
            parents = tuple(ParentTexel(line, (line + (1 << 20),), probes)
                            for line in lines)
            conventional, texels = (), 0
        else:
            parents = ()
            conventional = tuple(dict.fromkeys(lines))
            texels = 2 * len(lines)
        expanded.append(ExpandedRequest(
            camera_angle=step * STEP, conventional_lines=conventional,
            num_conventional_texels=texels, parents=parents,
            num_parent_texels=len(parents),
        ))
    return expanded


def run(design, gpu, threshold, requests, production):
    """Serve the frame on a fresh path through the production session or
    the reference; return the completions and the path."""
    path = make_texture_path(
        DesignConfig(design=design, gpu=gpu, angle_threshold=threshold),
        TrafficMeter(),
    )
    expanded = rows(design, requests)
    issues = np.cumsum([gap for *_, gap in requests]).tolist()
    if production:
        frame = ExpandedFrame.from_requests(expanded)
        session = path.begin_replay(frame, np.zeros(len(frame), dtype=int))
        completions = [session.serve_one(0, issue, index)
                       for index, issue in enumerate(issues)]
        session.finish()
    else:
        completions = [reference.serve(path, 0, issue, request)
                       for issue, request in zip(issues, expanded)]
    return completions, path


def l2_state(path):
    """The L2's counters, each set's lines in LRU order with their angle
    tags, its cold-fill log, and the L2 port."""
    l2 = path.caches.l2
    return ((l2.hits, l2.misses, l2.angle_misses), cache_contents(path)[-1],
            cold_fills(path)[-1], server_state(path.caches.l2_port))


def everything(path):
    """Every counter of the path, and every cache's lines, angle tags
    and cold fills."""
    return (dict(path.stat_group().flatten()), cache_contents(path),
            cold_fills(path), l2_state(path))


class TestInlineL2:
    @settings(NO_SHRINK, max_examples=300)
    @given(case=cases())
    @example(case=(
        # Line 0 leaves the one-line L1 and is found in the L2 at the
        # angle it was stored with: at threshold 0 an equal angle is
        # not stale.
        Design.A_TFIM,
        GPUConfig(l1_cache=cache(1, 1), l2_cache=cache(1, 2)),
        0.0,
        [(3, [0], 4, 0.0), (3, [64], 4, 1.0), (3, [0], 4, 1.0)],
    ))
    def test_matches_the_reference(self, case):
        design, gpu, threshold, requests = case
        expected, oracle = run(design, gpu, threshold, requests, False)
        completions, path = run(design, gpu, threshold, requests, True)
        assert completions == expected
        assert l2_state(path) == l2_state(oracle)

    @settings(NO_SHRINK, max_examples=150)
    @given(case=cases())
    def test_a_threshold_inside_the_interval_repeats_the_run(self, case):
        _, gpu, threshold, requests = case
        completions, path = run(Design.A_TFIM, gpu, threshold, requests,
                                True)
        below, above = path.threshold_interval
        assert below <= threshold_steps(threshold) < above
        for inside in (below, above - 1):
            again, rerun = run(Design.A_TFIM, gpu, inside * STEP, requests,
                               True)
            assert again == completions
            assert everything(rerun) == everything(path)
