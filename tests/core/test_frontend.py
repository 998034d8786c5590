"""What ``simulate_frame`` and ``simulate_sequence`` share and skip.

Consecutive calls on one trace share one expansion.  Only a path with
texture caches gets a warm-up replay: S-TFIM has none, and its
``reset_for_measurement`` returns it to its constructed state, so a
warm-up could change nothing.  And no run keeps a frame or replay
columns on its path.
"""

import copy
import dataclasses

import pytest

from repro.core import Design, simulate_frame, simulate_sequence
from repro.core.atfim import AtfimPath
from repro.core.baseline import GpuFilteringPath
from repro.core.designs import DesignConfig
from repro.core.expansion import RequestExpander
from repro.core.frontend import make_texture_path
from repro.core.stfim import StfimPath
from repro.gpu.pipeline import GpuPipeline
from repro.memory.traffic import TrafficMeter
from repro.obs import run_stat_group
from repro.render.renderer import Renderer
from tests.conftest import make_tiny_scene
from tests.gpu.test_replay_batch import resource_state


@pytest.fixture
def fresh():
    """A scene and a trace that no earlier call has seen."""
    scene, camera = make_tiny_scene()
    renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
    return scene, renderer.trace_only(scene, camera).trace


def count_calls(monkeypatch, owner, name, calls):
    """Wrap ``owner.name`` so each call appends its receiver's type."""
    original = getattr(owner, name)

    def wrapper(self, *args, **kwargs):
        calls.append(type(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


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


@pytest.mark.parametrize("mtu_share", (1, 2, 4))
def test_stfim_reset_restores_the_constructed_state(fresh, mtu_share):
    """After a replay, ``reset_for_measurement`` leaves S-TFIM's memory
    side, queues, merge windows and MTUs as a freshly built path's: the
    condition that makes skipping its warm-up exact."""
    scene, trace = fresh
    config = DesignConfig(design=Design.S_TFIM, mtu_share=mtu_share)
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


@pytest.mark.parametrize(
    "design, sessions",
    [(Design.BASELINE, 2), (Design.B_PIM, 2), (Design.S_TFIM, 1),
     (Design.A_TFIM, 2)],
    ids=lambda value: value.value if isinstance(value, Design) else str(value),
)
def test_warm_up_replays_only_cached_designs(fresh, monkeypatch, design,
                                             sessions):
    scene, trace = fresh
    calls = []
    for owner in (GpuFilteringPath, StfimPath, AtfimPath):
        count_calls(monkeypatch, owner, "begin_replay", calls)
    simulate_frame(scene, trace, DesignConfig(design=design))
    assert len(calls) == sessions


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
