"""Tests for request expansion -- its agreement with the functional
sampler, which ties the cycle model's texel counts to the renderer's, and
the columnar ``expand_frame`` against the scalar ``expand`` it replaces on
the simulate path."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Design, simulate_frame, simulate_sequence
from repro.core.designs import DesignConfig
from repro.core.expansion import (
    ExpandedFrame,
    ExpandedRequest,
    ParentTexel,
    RequestExpander,
    _first_touch,
)
from repro.experiments.runner import FAST_WORKLOADS
from repro.render.scene import Scene
from repro.texture.lod import SampleFootprint, compute_footprint
from repro.texture.requests import TextureRequest
from repro.texture.sampling import TextureSampler
from repro.texture.texture import Texture
from repro.workloads import workload_by_name
from repro.workloads.animation import walk_forward
from repro.workloads.textures import ProceduralTextureLibrary
from tests.reference import trace_from_requests


@pytest.fixture(scope="module")
def scene():
    scene = Scene()
    library = ProceduralTextureLibrary()
    scene.add_texture(library.create("checker", 64, seed=1))
    return scene


def make_request(u=20.0, v=20.0, probes=4, lod=1.5):
    minor = 2.0 ** lod
    footprint = compute_footprint(minor * probes, 0.0, 0.0, minor)
    return TextureRequest(
        pixel_x=0, pixel_y=0, texture_id=0, u=u, v=v,
        footprint=footprint, camera_angle=0.4,
    )


def single_probe(request):
    """``request`` with anisotropic filtering disabled: one probe."""
    footprint = dataclasses.replace(request.footprint, probes=1)
    return dataclasses.replace(request, footprint=footprint)


def isotropic(expander, request):
    """The scalar reference of ``expand_frame(aniso_enabled=False)``:
    ``expand`` at one probe."""
    return expander.expand(single_probe(request))


class TestExpansion:
    def test_conventional_texel_count(self, scene):
        expander = RequestExpander(scene)
        expanded = expander.expand(make_request(probes=4, lod=1.5))
        # 4 probes x (4 + 4) trilinear taps.
        assert expanded.num_conventional_texels == 32

    def test_parent_count_two_levels(self, scene):
        expander = RequestExpander(scene)
        expanded = expander.expand(make_request(lod=1.5))
        assert expanded.num_parent_texels == 8

    def test_parent_count_single_level(self, scene):
        expander = RequestExpander(scene)
        expanded = expander.expand(make_request(probes=1, lod=0.0))
        assert expanded.num_parent_texels == 4

    def test_children_per_parent_equal_probes(self, scene):
        expander = RequestExpander(scene)
        expanded = expander.expand(make_request(probes=4))
        for parent in expanded.parents:
            assert parent.num_children == 4
        assert expanded.total_child_texels == 32

    def test_unique_child_lines_deduplicated(self, scene):
        expander = RequestExpander(scene)
        expanded = expander.expand(make_request(probes=8))
        raw = sum(len(p.child_line_addresses) for p in expanded.parents)
        assert len(expanded.unique_child_lines) <= raw

    def test_lines_are_aligned(self, scene):
        expander = RequestExpander(scene)
        expanded = expander.expand(make_request())
        for line in expanded.conventional_lines:
            assert line % 64 == 0
        for parent in expanded.parents:
            assert parent.line_address % 64 == 0

    def test_matches_functional_sampler_lines(self, scene):
        """Cross-validation: the architectural expansion touches exactly
        the texels the functional sampler reads."""
        expander = RequestExpander(scene)
        chain = scene.mipmap_chain(0)
        sampler = TextureSampler(chain)
        for probes, lod, u, v in [(1, 0.0, 5.0, 5.0), (4, 1.5, 20.0, 11.0),
                                  (8, 2.3, 40.0, 33.0)]:
            request = make_request(u=u, v=v, probes=probes, lod=lod)
            expanded = expander.expand(request)
            result = sampler.sample(request.footprint, u, v, record=True)
            functional_lines = {
                expander.address_map.texel_line(chain, level, x, y)
                for level, x, y in result.texels
            }
            assert functional_lines == set(expanded.conventional_lines)

    def test_isotropic_expansion_collapses(self, scene):
        expander = RequestExpander(scene)
        request = make_request(probes=8, lod=1.5)
        expanded = expander.expand_frame(
            trace_from_requests([request]), aniso_enabled=False
        )[0]
        # Anisotropy disabled: only the 8 trilinear taps remain.
        assert expanded.num_conventional_texels == 8
        for parent in expanded.parents:
            assert parent.num_children == 1

    def test_isotropic_fewer_texels_than_full(self, scene):
        expander = RequestExpander(scene)
        request = make_request(probes=8)
        full = expander.expand(request)
        flat = expander.expand_frame(
            trace_from_requests([request]), aniso_enabled=False
        )[0]
        assert flat.num_conventional_texels < full.num_conventional_texels


@pytest.fixture(scope="module", params=[
    (name, pose) for name in FAST_WORKLOADS for pose in ("start", "walk1")
], ids=lambda param: f"{param[0]}-{param[1]}")
def fast_trace(request):
    """Each fast workload's trace, from its own camera (``start``) and
    from frame 1 of a three-frame ``walk_forward(4.0)`` (``walk1``).

    The second input is the held-out one.  It has to move the geometry:
    a workload seed only recolours textures, and expands to the same
    columns."""
    name, pose = request.param
    workload = workload_by_name(name)
    if pose == "start":
        return workload.trace()
    built = workload.build()
    camera = walk_forward(4.0)(built.camera).cameras(built.camera, 3)[1]
    renderer = workload.make_renderer()
    return built.scene, renderer.trace_only(built.scene, camera).trace


class TestFirstTouch:
    @pytest.mark.parametrize("spread", (1 << 8, 1 << 60),
                             ids=("packed", "too-wide-to-pack"))
    def test_marks_each_rows_first_occurrences(self, spread):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 5, size=(50, 12)) * (spread // 8)
        expected = [
            [value not in row[:column] for column, value in enumerate(row)]
            for row in values.tolist()
        ]
        assert _first_touch(values).tolist() == expected


class TestExpandFrame:
    """``expand_frame`` is ``expand``, request for request, exactly."""

    def test_matches_scalar_expand_on_fast_traces(self, fast_trace):
        scene, trace = fast_trace
        expander = RequestExpander(scene)
        frame = expander.expand_frame(trace)
        assert len(frame) == len(trace)
        for index, request in enumerate(trace.requests):
            assert frame[index] == expander.expand(request)

    def test_isotropic_is_expand_at_one_probe(self):
        scene, trace = workload_by_name(FAST_WORKLOADS[0]).trace()
        expander = RequestExpander(scene)
        frame = expander.expand_frame(trace, aniso_enabled=False)
        for index, request in enumerate(trace.requests):
            assert frame[index] == isotropic(expander, request)

    def test_from_requests_round_trips(self, scene):
        expander = RequestExpander(scene)
        expanded = [
            expander.expand(make_request(u=u, probes=probes, lod=lod))
            for u, probes, lod in [(3.0, 1, 0.0), (-7.5, 4, 1.5), (90.0, 8, 2.3)]
        ]
        frame = ExpandedFrame.from_requests(expanded)
        assert [frame[index] for index in range(len(frame))] == expanded
        assert frame[-1] == expanded[-1]

    @pytest.mark.parametrize("build", ["expand_frame", "from_requests"])
    def test_columns_are_read_only(self, scene, build):
        """One expansion serves every design over a trace, so none may
        edit it in place."""
        expander = RequestExpander(scene)
        requests = [make_request(u=3.0, probes=1, lod=0.0),
                    make_request(probes=4)]
        if build == "expand_frame":
            frame = expander.expand_frame(trace_from_requests(requests))
        else:
            frame = ExpandedFrame.from_requests(
                [expander.expand(request) for request in requests]
            )
        for column in dataclasses.fields(frame):
            with pytest.raises(ValueError, match="read-only"):
                getattr(frame, column.name)[0] = 0

    def test_empty_trace(self, scene):
        frame = RequestExpander(scene).expand_frame(trace_from_requests([]))
        assert len(frame) == 0
        assert frame.line_offsets.tolist() == [0]
        assert frame.parent_offsets.tolist() == [0]
        assert frame.child_offsets.tolist() == [0]


def _scene_for_properties():
    """A 64-texel chain (whose top levels are narrower than a 4-texel
    tile) plus a 2x64 strip, narrower than a tile at every level."""
    scene = Scene()
    library = ProceduralTextureLibrary()
    scene.add_texture(library.create("checker", 64, seed=1))
    scene.add_texture(Texture(texture_id=1, data=np.full((64, 2, 4), 0.5)))
    return scene


PROPERTY_SCENE = _scene_for_properties()
MAX_LEVEL = PROPERTY_SCENE.mipmap_chain(0).max_level

coordinates = st.one_of(
    st.floats(-200.0, 200.0),
    st.floats(-1e7, 1e7),
)
lods = st.one_of(
    st.floats(-3.0, MAX_LEVEL + 3.0),
    st.sampled_from([-1.0, 0.0, 1.0, 2.0, float(MAX_LEVEL), MAX_LEVEL + 2.0]),
)


@st.composite
def texture_requests(draw):
    footprint = SampleFootprint(
        lod=draw(lods),
        anisotropy=1.0,
        probes=draw(st.integers(1, 16)),
        major_du=draw(st.floats(-1.0, 1.0)),
        major_dv=draw(st.floats(-1.0, 1.0)),
        major_length=draw(st.floats(0.0, 100.0)),
    )
    return TextureRequest(
        pixel_x=0, pixel_y=0, texture_id=draw(st.sampled_from([0, 1])),
        u=draw(coordinates), v=draw(coordinates),
        footprint=footprint, camera_angle=draw(st.floats(0.0, 1.5)),
    )


class TestExpandFrameProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        requests=st.lists(texture_requests(), min_size=1, max_size=12),
        line_bytes=st.sampled_from([64, 128]),
    )
    def test_matches_scalar_expand(self, requests, line_bytes):
        expander = RequestExpander(PROPERTY_SCENE, line_bytes=line_bytes)
        trace = trace_from_requests(requests)
        frame = expander.expand_frame(trace)
        flat = expander.expand_frame(trace, aniso_enabled=False)
        for index, request in enumerate(requests):
            assert frame[index] == expander.expand(request)
            assert flat[index] == isotropic(expander, request)


class TestSimulatePathBuildsNoObjects:
    """Every design replays the frame's arrays: no per-request
    ``ExpandedRequest`` or ``ParentTexel`` is built on the simulate path."""

    @pytest.fixture
    def forbid_objects(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        monkeypatch.setattr(ExpandedRequest, "__init__", refuse)
        monkeypatch.setattr(ParentTexel, "__init__", refuse)

    @pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
    def test_simulate_frame(self, tiny_trace, forbid_objects, design):
        scene, trace = tiny_trace
        run = simulate_frame(scene, trace, DesignConfig(design=design))
        assert run.frame.num_requests == len(trace.requests)

    @pytest.mark.parametrize("design", [Design.BASELINE, Design.A_TFIM],
                             ids=lambda d: d.value)
    def test_simulate_sequence(self, tiny_trace, forbid_objects, design):
        scene, trace = tiny_trace
        result = simulate_sequence(
            scene, [trace, trace], DesignConfig(design=design)
        )
        assert result.num_frames == 2

    def test_the_patch_bites(self, scene, forbid_objects):
        with pytest.raises(AssertionError, match="built a"):
            RequestExpander(scene).expand(make_request())

