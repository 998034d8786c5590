"""What ``simulate_frame`` and ``simulate_sequence`` share and skip.

A memo holds the expansions of the last call's traces: consecutive calls
on one trace share one expansion, a second design over a camera path
expands none of its frames, and a call on other traces frees the
expansions it will not use, so ``simulate_frame`` leaves one expansion
alive and a sequence its own.  ``simulate_frame``
replays a frame from the warm caches only where its cold replay's
caches say a warm start could change a cache outcome
(``TexturePath.warm_start_inert``); elsewhere the cold replay is the
measured frame, which holds because ``reset_for_measurement`` returns
every design's path, caches apart, to its constructed state.  S-TFIM
has no caches, so it never replays twice.  And no run keeps a frame or
replay columns on its path.  A call that differs from the last simulated
one only in a threshold inside that run's ``threshold_interval`` is
served from it, replaying nothing; any other difference simulates.
"""

import copy
import dataclasses
import gc
import math
import weakref

import pytest

from repro import obs
from repro.core import Design, simulate_frame, simulate_sequence
from repro.core.angle import (
    DEFAULT_THRESHOLD,
    THRESHOLD_005PI,
    THRESHOLD_01PI,
    THRESHOLD_NO_RECALC,
)
from repro.core.atfim import AtfimPath
from repro.core.baseline import GpuFilteringPath
from repro.core.designs import DesignConfig
from repro.core.expansion import RequestExpander
from repro.core.frontend import DesignRun, _expand, make_texture_path
from repro.core.stfim import StfimPath
from repro.experiments.runner import FAST_WORKLOADS
from repro.gpu.pipeline import GpuPipeline
from repro.memory.traffic import TrafficMeter
from repro.obs import run_stat_group
from repro.render.renderer import Renderer
from repro.workloads import workload_by_name
from repro.workloads.animation import strafe, walk_forward
from tests import reference
from tests.conftest import make_tiny_scene
from tests.gpu.test_replay_batch import resource_state

PARITY_WORKLOADS = FAST_WORKLOADS + ["fear-640x480"]
WARM_DEPENDENT = {"tiny", "riddick-640x480", "fear-640x480"}
"""The scenes of this module whose cached designs need the warm replay:
the tiny scene's caches end with free ways, and ROADMAP's warm-up item
names all 15 such report points."""


@pytest.fixture
def fresh():
    """A scene and a trace that no earlier call has seen."""
    scene, camera = make_tiny_scene()
    renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
    return scene, renderer.trace_only(scene, camera).trace


@pytest.fixture
def paths():
    """A scene with two three-frame camera paths over it, a walk and a
    strafe, whose traces no earlier call has seen."""
    scene, camera = make_tiny_scene()
    renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
    return scene, [
        [renderer.trace_only(scene, pose).trace
         for pose in motion(camera).cameras(camera, 3)]
        for motion in (walk_forward(2.0), strafe(1.0))
    ]


@pytest.fixture(scope="module")
def traces():
    """``traces(name)``: a workload with its scene and trace, built on
    first use and shared by this module's tests."""
    built = {}

    def get(name):
        if name not in built:
            workload = workload_by_name(name)
            built[name] = (workload,) + workload.trace()
        return built[name]

    return get


def count_calls(monkeypatch, owner, name, calls):
    """Wrap ``owner.name`` so each call appends its receiver's type."""
    original = getattr(owner, name)

    def wrapper(self, *args, **kwargs):
        calls.append(type(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class Expansions:
    """Every ``expand_frame`` result since the patch, held weakly."""

    def __init__(self, monkeypatch):
        self.made = []
        original = RequestExpander.expand_frame

        def wrapper(expander, trace, *args, **kwargs):
            frame = original(expander, trace, *args, **kwargs)
            self.made.append((trace, weakref.ref(frame)))
            return frame

        monkeypatch.setattr(RequestExpander, "expand_frame", wrapper)

    def __len__(self):
        return len(self.made)

    def alive(self):
        """The traces whose expansions something still holds."""
        gc.collect()
        return [trace for trace, ref in self.made if ref() is not None]


class TestOneExpansionPerTrace:
    def test_consecutive_points_share_one_expansion(self, fresh, monkeypatch):
        scene, trace = fresh
        calls = []
        count_calls(monkeypatch, RequestExpander, "expand_frame", calls)
        shared = {
            design: simulate_frame(scene, trace, DesignConfig(design=design))
            for design in Design
        }
        assert len(calls) == 1
        # A trace of its own expands again and simulates the same.
        alone = simulate_frame(scene, dataclasses.replace(trace),
                               DesignConfig(design=Design.A_TFIM))
        assert len(calls) == 2
        assert (dict(run_stat_group(alone).flatten())
                == dict(run_stat_group(shared[Design.A_TFIM]).flatten()))

    def test_a_new_trace_scene_or_aniso_setting_expands_again(
        self, fresh, monkeypatch
    ):
        scene, trace = fresh
        calls = []
        count_calls(monkeypatch, RequestExpander, "expand_frame", calls)
        config = DesignConfig(design=Design.BASELINE)
        isotropic = dataclasses.replace(config, aniso_enabled=False)
        other_trace = dataclasses.replace(trace)
        other_scene = copy.copy(scene)
        steps = [
            (scene, trace, config, 1),
            (scene, trace, config, 1),
            (scene, other_trace, config, 2),
            (other_scene, other_trace, config, 3),
            (other_scene, other_trace, isotropic, 4),
            (other_scene, other_trace, isotropic, 4),
            (other_scene, other_trace, config, 5),
        ]
        for step_scene, step_trace, step_config, expected in steps:
            simulate_frame(step_scene, step_trace, step_config)
            assert len(calls) == expected


class TestOneExpansionPerPath:
    """A sequence's expansions stay until a call on other traces."""

    def test_a_second_design_over_a_path_expands_nothing(
        self, paths, monkeypatch
    ):
        scene, (walk, strafing) = paths
        made = Expansions(monkeypatch)
        simulate_frame(scene, strafing[0], DesignConfig(design=Design.B_PIM))
        for design in (Design.BASELINE, Design.A_TFIM):
            simulate_sequence(scene, walk, DesignConfig(design=design))
        assert len(made) == 1 + 3
        assert made.alive() == walk

    def test_a_frame_on_another_trace_frees_the_path(self, paths,
                                                     monkeypatch):
        scene, (walk, strafing) = paths
        made = Expansions(monkeypatch)
        simulate_sequence(scene, walk, DesignConfig(design=Design.BASELINE))
        assert made.alive() == walk
        simulate_frame(scene, strafing[0], DesignConfig(design=Design.A_TFIM))
        assert made.alive() == [strafing[0]]

    def test_a_path_over_other_traces_leaves_only_its_own(self, paths,
                                                          monkeypatch):
        scene, (walk, strafing) = paths
        made = Expansions(monkeypatch)
        config = DesignConfig(design=Design.A_TFIM)
        simulate_sequence(scene, walk, config)
        simulate_sequence(scene, strafing, config)
        assert len(made) == 6
        assert made.alive() == strafing


def test_only_the_first_design_expands_under_its_sequence_span(paths):
    """Under ``REPRO_TRACE``, each sequence is one span over its frames'
    spans, and only the first design's holds expansions."""
    scene, (walk, _strafing) = paths
    designs = (Design.BASELINE, Design.A_TFIM)
    was = obs.tracing_enabled()
    obs.set_tracing(True, propagate_env=False)
    obs.reset_tracer()
    try:
        for design in designs:
            simulate_sequence(scene, walk, DesignConfig(design=design))
        roots = obs.get_tracer().as_dicts()
    finally:
        obs.reset_tracer()
        obs.set_tracing(was, propagate_env=False)

    def count(span, name):
        return sum(count(child, name) for child in span["children"]) + (
            span["name"] == name)

    assert [root["name"] for root in roots] == ["core.simulate_sequence"] * 2
    assert [root["attributes"] for root in roots] == [
        {"design": design.value, "frames": 3,
         "requests": sum(len(trace) for trace in walk)}
        for design in designs
    ]
    for root in roots:
        assert [child["name"] for child in root["children"]] == (
            ["core.simulate_sequence_frame"] * 3)
    assert [count(root, "core.expand") for root in roots] == [3, 0]


@pytest.mark.parametrize("design, mtu_share", [
    pytest.param(Design.BASELINE, 1, id="baseline"),
    pytest.param(Design.B_PIM, 1, id="b-pim"),
    *(pytest.param(Design.S_TFIM, share, id=f"s-tfim-{share}")
      for share in (1, 2, 4)),
    pytest.param(Design.A_TFIM, 1, id="a-tfim"),
])
def test_reset_restores_the_constructed_state(fresh, design, mtu_share):
    """After a replay, ``reset_for_measurement`` leaves every design's
    memory side, units, queues, merge windows and counters as a freshly
    built path's; only the caches' contents remain.  This is what makes
    the cold replay the measured one where the warm start is inert."""
    scene, trace = fresh
    config = DesignConfig(design=design, mtu_share=mtu_share)
    expanded = RequestExpander(scene).expand_frame(trace)
    traffic, built_traffic = TrafficMeter(), TrafficMeter()
    path = make_texture_path(config, traffic)
    built = make_texture_path(config, built_traffic)
    GpuPipeline(config.gpu).replay_texture_stream(trace, expanded, path)
    assert resource_state(path, traffic) != resource_state(built, built_traffic)
    path.reset_for_measurement()
    traffic.reset()
    assert resource_state(path, traffic) == resource_state(built, built_traffic)
    assert (dict(path.stat_group().flatten())
            == dict(built.stat_group().flatten()))


def scene_trace_config(source, design, fresh, traces):
    """The tiny scene with a default config, or a workload's trace with
    its own config."""
    if source == "tiny":
        scene, trace = fresh
        return scene, trace, DesignConfig(design=design)
    workload, scene, trace = traces(source)
    return scene, trace, workload.design_config(design)


def session_case(source, design):
    """``(source, design, sessions)``, with an id naming all three (the
    tiny scene's ids name no source)."""
    cached = design is not Design.S_TFIM
    sessions = 2 if cached and source in WARM_DEPENDENT else 1
    prefix = "" if source == "tiny" else f"{source}-"
    return pytest.param(source, design, sessions,
                        id=f"{prefix}{design.value}-{sessions}")


@pytest.mark.parametrize("source, design, sessions", [
    session_case(source, design)
    for source in ("tiny", "doom3-640x480", "riddick-640x480")
    for design in Design
])
def test_warm_up_replays_only_cached_designs(fresh, traces, monkeypatch,
                                             source, design, sessions):
    """One replay session, plus one from the warm caches exactly where
    the cold replay's check fails: never for S-TFIM, which has no
    caches.  The trace is a fresh object, so no earlier run serves the
    call."""
    scene, trace, config = scene_trace_config(source, design, fresh, traces)
    trace = dataclasses.replace(trace)
    cold = reference.cold_run(scene, trace, config)
    calls = []
    for owner in (GpuFilteringPath, StfimPath, AtfimPath):
        count_calls(monkeypatch, owner, "begin_replay", calls)
    simulate_frame(scene, trace, config)
    assert len(calls) == sessions
    assert len(calls) == (1 if cold.path.warm_start_inert() else 2)


def cache_contents(path):
    """Every cache set's lines, oldest first, with their angle tags."""
    if path.caches is None:
        return None
    return [
        {index: [(tag, line.angle) for tag, line in cache_set.items()]
         for index, cache_set in cache._sets.items() if cache_set}
        for cache in path.caches.l1 + [path.caches.l2]
    ]


def explicit_warm_up(scene, trace, config):
    """The protocol ``simulate_frame`` stands for, spelled out: a
    warm-up replay, ``reset_for_measurement``, the measured replay."""
    traffic = TrafficMeter()
    path = make_texture_path(config, traffic)
    pipeline = GpuPipeline(config.gpu)
    (expanded,) = _expand(scene, [trace], config.aniso_enabled)
    pipeline.replay_texture_stream(trace, expanded, path)
    path.reset_for_measurement()
    traffic.reset()
    frame = pipeline.simulate_frame(
        trace=trace, expanded=expanded, path=path, traffic=traffic,
        num_vertices=scene.num_vertices,
        external_bytes_per_cycle=config.external_bytes_per_cycle,
    )
    return DesignRun(config=config, frame=frame, path=path)


def observed(run):
    return (dict(run_stat_group(run).flatten()),
            resource_state(run.path, run.frame.traffic),
            cache_contents(run.path))


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
@pytest.mark.parametrize("name", PARITY_WORKLOADS)
def test_simulate_frame_matches_the_explicit_warm_up(traces, name, design):
    """Whether or not it replays twice, ``simulate_frame`` leaves what
    the explicit warm-up -> reset -> measured sequence leaves: the
    flattened stat group, the memory side and units, and every cache
    line with its angle tag."""
    workload, scene, trace = traces(name)
    config = workload.design_config(design)
    assert (observed(simulate_frame(scene, trace, config))
            == observed(explicit_warm_up(scene, trace, config)))


def test_runs_hold_no_frame_or_columns(fresh):
    """A finished run keeps no frame or replay columns on its path, so
    the runs a caller keeps (or pickles) stay small."""
    scene, trace = fresh
    for design in Design:
        config = DesignConfig(design=design)
        run = simulate_frame(scene, trace, config)
        assert run.path._column_cache is None, design
        result = simulate_sequence(
            scene, [trace, dataclasses.replace(trace)], config
        )
        assert result.path._column_cache is None, design


SWEEP_WORKLOADS = ["hl2-640x480", "fear-640x480"]
"""Fig. 14's workloads: hl2 needs one replay, fear the warm one too."""


def sweep_config(workload, angle):
    return workload.design_config(
        Design.A_TFIM, angle_threshold=angle.effective_radians
    )


def at(config, threshold):
    """``config`` at effective angle threshold ``threshold``."""
    exact = dataclasses.replace(config, angle_threshold=threshold,
                                angle_threshold_scale=1.0)
    assert exact.effective_angle_threshold == threshold
    return exact


def unserved(scene, trace, config, threshold):
    """A simulation at effective threshold ``threshold`` that no earlier
    run can serve: on a trace object of its own."""
    return simulate_frame(scene, dataclasses.replace(trace),
                          at(config, threshold))


@pytest.mark.parametrize("name", SWEEP_WORKLOADS)
def test_the_threshold_interval_is_tight(traces, name):
    """At 0.01pi, which recalculates, the run's interval holds exactly
    the thresholds that simulate it again: fresh runs at both ends of
    it repeat the run, and fresh runs just outside differ.  Fear's run
    replays twice, so there the interval covers both replays (which
    ``tests/core/test_texture_paths.py`` pins on a hand-built frame)."""
    workload, scene, trace = traces(name)
    config = sweep_config(workload, DEFAULT_THRESHOLD)
    run = simulate_frame(scene, trace, config)
    below, above = run.path.threshold_interval
    assert 0.0 < below <= config.effective_angle_threshold < above < math.inf
    expected = observed(run)
    for threshold in (below, math.nextafter(above, 0.0)):
        assert observed(unserved(scene, trace, config, threshold)) == expected
    for threshold in (above, math.nextafter(below, 0.0)):
        assert observed(unserved(scene, trace, config, threshold)) != expected


def test_a_call_is_served_exactly_inside_the_interval(traces, monkeypatch):
    """On the recorded run's trace, both ends of its interval are
    served, and the first threshold above it simulates."""
    workload, scene, trace = traces("hl2-640x480")
    config = sweep_config(workload, DEFAULT_THRESHOLD)
    below, above = simulate_frame(scene, trace, config).path.threshold_interval
    calls = []
    count_calls(monkeypatch, AtfimPath, "begin_replay", calls)
    for threshold in (below, math.nextafter(above, 0.0)):
        simulate_frame(scene, trace, at(config, threshold))
    assert calls == []
    simulate_frame(scene, trace, at(config, above))
    assert calls


@pytest.mark.parametrize("name", SWEEP_WORKLOADS)
def test_a_served_call_is_the_run_its_threshold_simulates(traces, monkeypatch,
                                                          name):
    """After 0.05pi, which recalculates nothing, 0.1pi and no
    recalculation open no replay session, and each returns what a fresh
    simulation at its own threshold returns, with its own config."""
    workload, scene, trace = traces(name)
    loose = (THRESHOLD_01PI, THRESHOLD_NO_RECALC)
    fresh_runs = {
        angle: simulate_frame(scene, dataclasses.replace(trace),
                              sweep_config(workload, angle))
        for angle in loose
    }
    stored = simulate_frame(scene, trace, sweep_config(workload,
                                                       THRESHOLD_005PI))
    calls = []
    count_calls(monkeypatch, AtfimPath, "begin_replay", calls)
    for angle in loose:
        config = sweep_config(workload, angle)
        served = simulate_frame(scene, trace, config)
        assert calls == []
        assert served.config == config and served.path.config == config
        assert observed(served) == observed(fresh_runs[angle])
    assert stored.config == stored.path.config == sweep_config(
        workload, THRESHOLD_005PI)


def loose_tiny(fresh):
    """The tiny scene under A-TFIM at pi, which no quantised angle
    difference exceeds, simulated once: any looser threshold is
    served from it."""
    scene, trace = fresh
    config = DesignConfig(design=Design.A_TFIM, angle_threshold=math.pi)
    simulate_frame(scene, trace, config)
    return scene, trace, dataclasses.replace(config,
                                             angle_threshold=2 * math.pi)


@pytest.mark.parametrize("change, sessions", [
    pytest.param(lambda scene, trace, config: {}, 0, id="threshold-only"),
    pytest.param(lambda scene, trace, config: {
        "config": dataclasses.replace(config, angle_threshold=0.0)},
        1, id="threshold-outside-the-interval"),
    pytest.param(lambda scene, trace, config: {
        "config": dataclasses.replace(config, design=Design.BASELINE)},
        1, id="design"),
    pytest.param(lambda scene, trace, config: {
        "config": dataclasses.replace(config, aniso_enabled=False)},
        1, id="aniso"),
    pytest.param(lambda scene, trace, config: {
        "config": dataclasses.replace(config, consolidation_enabled=False)},
        1, id="consolidation"),
    pytest.param(lambda scene, trace, config: {
        "trace": dataclasses.replace(trace)}, 1, id="trace-object"),
    pytest.param(lambda scene, trace, config: {"scene": copy.copy(scene)},
                 1, id="scene-object"),
])
def test_no_call_is_served_across_another_setting(fresh, monkeypatch, change,
                                                  sessions):
    """Only the threshold may differ: a call that changes anything else
    simulates (at least one replay session), one that does not replays
    nothing."""
    scene, trace, config = loose_tiny(fresh)
    calls = []
    for owner in (GpuFilteringPath, StfimPath, AtfimPath):
        count_calls(monkeypatch, owner, "begin_replay", calls)
    call = dict(scene=scene, trace=trace, config=config)
    call.update(change(scene, trace, config))
    simulate_frame(**call)
    assert min(len(calls), 1) == sessions


def test_a_served_call_is_traced_and_checked(fresh, monkeypatch):
    """A served call still records ``replays`` (0) and its stat group
    on its span, and still runs the invariant check when asked."""
    from repro.analysis import invariants

    scene, trace, config = loose_tiny(fresh)
    was = obs.tracing_enabled()
    obs.set_tracing(True, propagate_env=False)
    obs.reset_tracer()
    try:
        run = simulate_frame(scene, trace, config, check_invariants=True)
        (root,) = obs.get_tracer().as_dicts()
    finally:
        obs.reset_tracer()
        obs.set_tracing(was, propagate_env=False)
    assert root["name"] == "core.simulate_frame"
    assert root["attributes"]["replays"] == 0
    assert [child["name"] for child in root["children"]] == [
        "core.check_invariants"]
    assert root["stats"] == {
        key: float(value) for key, value in run_stat_group(run).flatten()}

    def always_fails(run):
        yield "injected failure"

    monkeypatch.setattr(invariants, "_REGISTRY",
                        [*invariants._REGISTRY, ("always-fails", always_fails)])
    with pytest.raises(invariants.InvariantError, match="injected"):
        simulate_frame(scene, trace, config, check_invariants=True)
