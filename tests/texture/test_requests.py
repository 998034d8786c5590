"""Tests for trace record types."""

import dataclasses
import pickle

import pytest

from repro.core import Design, simulate_frame, simulate_sequence
from repro.render.renderer import SamplingMode
from repro.texture.lod import compute_footprint
from repro.texture.requests import FragmentTrace, TextureRequest
from repro.workloads import workload_by_name
from tests.reference import trace_from_requests


def make_request(tile_x=0, tile_y=0, texture_id=0):
    return TextureRequest(
        pixel_x=1,
        pixel_y=2,
        texture_id=texture_id,
        u=3.0,
        v=4.0,
        footprint=compute_footprint(1.0, 0.0, 0.0, 1.0),
        camera_angle=0.5,
        tile_x=tile_x,
        tile_y=tile_y,
    )


class TestTextureRequest:
    def test_construction(self):
        request = make_request()
        assert request.footprint.probes == 1

    def test_negative_texture_id_rejected(self):
        with pytest.raises(ValueError):
            make_request(texture_id=-1)

    def test_negative_angle_rejected(self):
        with pytest.raises(ValueError):
            TextureRequest(
                pixel_x=0, pixel_y=0, texture_id=0, u=0, v=0,
                footprint=compute_footprint(1, 0, 0, 1), camera_angle=-0.1,
            )


class TestFragmentTrace:
    def test_counts(self):
        trace = trace_from_requests([make_request()] * 3, width=8, height=8)
        assert trace.num_fragments == len(trace) == 3

    def test_default_tile_size(self):
        trace = trace_from_requests([], width=8, height=8)
        assert trace.tile_size == 16

    def test_rows_round_trip(self):
        requests = [
            make_request(tile_x=1, tile_y=2),
            make_request(texture_id=3),
        ]
        trace = trace_from_requests(requests)
        assert list(trace.requests) == requests
        assert trace.requests[-1] == requests[-1]
        assert trace.requests[:1] == requests[:1]
        with pytest.raises(IndexError):
            trace.requests[2]

    def test_rows_are_built_per_access(self):
        trace = trace_from_requests([make_request()])
        assert trace.requests[0] is not trace.requests[0]
        assert trace.requests is not trace.requests

    @pytest.mark.parametrize("column", ["texture_id", "camera_angle"])
    def test_negative_column_rejected(self, column):
        trace = trace_from_requests([make_request()] * 2)
        negative = getattr(trace, column).copy()
        negative[1] = -1
        with pytest.raises(ValueError):
            dataclasses.replace(trace, **{column: negative})

    def test_columns_are_read_only(self):
        """What is memoised on a trace's identity (its expansion, its
        cluster partition, a path's replay columns) cannot go stale
        through an in-place edit."""
        trace = trace_from_requests([make_request()] * 2)
        columns = [
            getattr(owner, field.name)
            for owner in (trace, trace.footprint)
            for field in dataclasses.fields(owner)
            if field.name not in ("width", "height", "tile_size", "footprint")
        ]
        assert len(columns) == 14
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = 1

    def test_pickle_round_trips(self):
        # No runner path pickles a trace any more (a `--jobs` task builds
        # its own), but a trace is plain data and must survive a pickle
        # round trip whole.
        _scene, trace = workload_by_name("doom3-640x480").trace()
        loaded = pickle.loads(pickle.dumps(trace))
        assert (loaded.width, loaded.height, loaded.tile_size) == (
            trace.width, trace.height, trace.tile_size
        )
        assert list(loaded.requests) == list(trace.requests)


class TestProductionBuildsNoRows:
    """Every production consumer reads the trace's columns: with the row
    view and the row type both refusing, a fast workload still traces,
    renders in every mode and simulates under every design."""

    @pytest.fixture
    def forbid_rows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built request rows")

        monkeypatch.setattr(FragmentTrace, "requests", property(refuse))
        monkeypatch.setattr(TextureRequest, "__init__", refuse)

    @pytest.fixture(scope="class")
    def workload(self):
        return workload_by_name("doom3-640x480")

    def test_trace_and_render(self, workload, forbid_rows):
        built = workload.build()
        renderer = workload.make_renderer()
        trace = renderer.trace_only(built.scene, built.camera).trace
        for mode in SamplingMode:
            output = renderer.render(built.scene, built.camera, mode, 0.05)
            assert len(output.trace) == len(trace)

    @pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
    def test_simulate_frame(self, workload, forbid_rows, design):
        scene, trace = workload.trace()
        run = simulate_frame(scene, trace, workload.design_config(design))
        assert run.frame.num_requests == len(trace)

    def test_simulate_sequence(self, workload, forbid_rows):
        scene, trace = workload.trace()
        result = simulate_sequence(
            scene, [trace, trace], workload.design_config(Design.A_TFIM)
        )
        assert result.num_frames == 2

    def test_the_patch_bites(self, forbid_rows):
        trace = trace_from_requests([])
        with pytest.raises(AssertionError, match="built request rows"):
            len(trace.requests)
        with pytest.raises(AssertionError, match="built request rows"):
            make_request()
