"""Shared fixtures: tiny deterministic scenes, traces and runners.

Session-scoped fixtures cache the expensive artefacts (rasterized traces,
design runs) so the suite stays fast while many tests share them.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

# Every frame simulated by the suite is validated against the runtime
# conservation invariants (repro.analysis.invariants).  Set before any
# repro import so session-scoped fixtures are covered too; respects an
# explicit REPRO_CHECK_INVARIANTS=0 from the caller.
os.environ.setdefault("REPRO_CHECK_INVARIANTS", "1")

from repro import obs
from repro.core import Design, simulate_frame
from repro.render.camera import Camera
from repro.render.renderer import Renderer
from repro.render.scene import Scene
from repro.texture.texture import Texture
from repro.workloads import workload_by_name
from repro.workloads.textures import ProceduralTextureLibrary


def make_checker_texture(texture_id: int = 0, size: int = 64) -> Texture:
    """A small high-contrast checker texture."""
    library = ProceduralTextureLibrary(next_id=texture_id)
    return library.create("checker", size, seed=7)


def make_tiny_scene(texture_size: int = 64) -> tuple[Scene, Camera]:
    """A floor receding from the camera plus a facing wall.

    Small enough to rasterize in milliseconds, but contains both grazing
    (anisotropic) and face-on (isotropic) surfaces.
    """
    scene = Scene(name="tiny")
    library = ProceduralTextureLibrary()
    floor = library.create("checker", texture_size, seed=3)
    wall = library.create("brick", texture_size, seed=4)
    scene.add_texture(floor)
    scene.add_texture(wall)
    scene.add_quad(
        [(-8.0, 0.0, 2.0), (8.0, 0.0, 2.0), (8.0, 0.0, -40.0), (-8.0, 0.0, -40.0)],
        floor.texture_id,
        uv_scale=12.0,
    )
    scene.add_quad(
        [(-8.0, 0.0, -40.0), (8.0, 0.0, -40.0), (8.0, 8.0, -40.0), (-8.0, 8.0, -40.0)],
        wall.texture_id,
        uv_scale=2.0,
    )
    camera = Camera(
        position=np.array([0.0, 1.5, 4.0]),
        target=np.array([0.0, 1.0, -20.0]),
        fov_y=math.radians(65.0),
    )
    return scene, camera


@pytest.fixture
def tracing_on():
    """Force tracing on (without touching the environment), clean slate."""
    was = obs.tracing_enabled()
    obs.set_tracing(True, propagate_env=False)
    obs.reset_tracer()
    yield
    obs.reset_tracer()
    obs.set_tracing(was, propagate_env=False)


@pytest.fixture(scope="session")
def tiny_scene():
    return make_tiny_scene()


@pytest.fixture(scope="session")
def tiny_trace(tiny_scene):
    scene, camera = tiny_scene
    renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
    output = renderer.trace_only(scene, camera)
    return scene, output.trace


@pytest.fixture(scope="session")
def fast_workload():
    return workload_by_name("doom3-640x480")


@pytest.fixture(scope="session")
def fast_workload_trace(fast_workload):
    return fast_workload.trace()


@pytest.fixture(scope="session")
def design_runs(fast_workload, fast_workload_trace):
    """All four designs simulated once on the fast workload."""
    scene, trace = fast_workload_trace
    runs = {}
    for design in Design:
        config = fast_workload.design_config(design)
        runs[design] = simulate_frame(scene, trace, config)
    return runs
