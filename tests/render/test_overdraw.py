"""Property tests: overlapping fragments are written as a loop writes them.

``Renderer.render`` scatters the shaded colours in one step, keeping each
pixel's last fragment in submission order.  The scalar reference in
``tests/reference.py`` rasterizes, shades and writes one fragment at a
time.  On random stacks of 2-4 textured quads at random depths and tilts,
submitted in random order (near first, so early-Z kills, or far first,
so fragments overdraw), the two must give the same image, depth buffer
and parent reuse/recalculation counts in every sampling mode, and each
pixel must end at the nearest depth any quad gives it.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import Rasterizer
from repro.render.renderer import Renderer, SamplingMode
from repro.render.scene import Scene
from repro.workloads.textures import ProceduralTextureLibrary
from tests.reference import ScalarRenderer

CAMERA = Camera(
    position=np.array([0.0, 0.0, 10.0]),
    target=np.array([0.0, 0.0, 0.0]),
    fov_y=math.radians(60.0),
)
RENDERS = [
    (SamplingMode.EXACT, 0.0),
    (SamplingMode.ISOTROPIC, 0.0),
    (SamplingMode.REORDERED, 0.0),
    (SamplingMode.ATFIM, 0.05),
]


@st.composite
def quads(draw):
    """One quad facing the camera, tilted about the x axis and placed
    so that it covers the middle of the frame."""
    half_w = draw(st.floats(1.0, 5.0))
    half_h = draw(st.floats(1.0, 5.0))
    centre = np.array([
        draw(st.floats(-1.0, 1.0)),
        draw(st.floats(-1.0, 1.0)),
        draw(st.floats(-8.0, 4.0)),
    ])
    tilt = draw(st.floats(-1.2, 1.2))
    up = np.array([0.0, math.cos(tilt), math.sin(tilt)])
    across = np.array([1.0, 0.0, 0.0])
    corners = [
        centre + sx * half_w * across + sy * half_h * up
        for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))
    ]
    texture_id = draw(st.sampled_from([0, 1]))
    uv_scale = draw(st.floats(0.5, 6.0))
    return corners, texture_id, uv_scale


@st.composite
def stacks(draw):
    """2-4 quads in a random submission order, and a small frame."""
    layers = draw(st.lists(quads(), min_size=2, max_size=4))
    order = draw(st.permutations(range(len(layers))))
    size = (draw(st.integers(6, 16)), draw(st.integers(6, 16)))
    return [layers[index] for index in order], size


def _scene(layers):
    scene = Scene(name="stack")
    library = ProceduralTextureLibrary()
    scene.add_texture(library.create("checker", 16, seed=1))
    scene.add_texture(library.create("brick", 16, seed=2))
    for corners, texture_id, uv_scale in layers:
        scene.add_quad(corners, texture_id, uv_scale=uv_scale)
    return scene


def _nearest_depths(layers, width, height):
    """Per pixel, the nearest depth any one quad gives it on its own."""
    nearest = np.full((height, width), np.inf)
    for layer in layers:
        framebuffer = Framebuffer(width, height)
        Rasterizer().rasterize_scene(_scene([layer]), CAMERA, framebuffer)
        nearest = np.minimum(nearest, framebuffer.depth)
    return nearest


class TestOverdraw:
    @settings(max_examples=30, deadline=None)
    @given(stack=stacks())
    def test_render_equals_the_write_loop(self, stack):
        layers, (width, height) = stack
        scene = _scene(layers)
        batched = Renderer(width, height, tile_size=4, max_anisotropy=8)
        scalar = ScalarRenderer(width, height, tile_size=4, max_anisotropy=8)
        nearest = _nearest_depths(layers, width, height)
        for mode, threshold in RENDERS:
            out = batched.render(scene, CAMERA, mode, threshold)
            ref = scalar.render(scene, CAMERA, mode, threshold)
            assert np.array_equal(out.image, ref.image)
            assert np.array_equal(out.framebuffer.depth, ref.framebuffer.depth)
            assert out.parent_reuses == ref.parent_reuses
            assert out.parent_recalculations == ref.parent_recalculations
            assert np.array_equal(out.framebuffer.depth, nearest)
