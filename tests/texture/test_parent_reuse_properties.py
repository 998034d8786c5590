"""Property tests: the batched A-TFIM kernel against the scalar store.

:func:`repro.texture.batch.anisotropic_first_batch` decides parent reuse
over whole lookup arrays; :class:`tests.reference.AngleTaggedParentStore`
decides it one lookup at a time.  On random request streams the two must
give bit-identical colors and equal reuse/recalculation counts.

The streams are built to reach the decision's corner cases:

* mip chains 1-8 texels on a side, so wrapped taps often name the same
  parent twice within one request;
* (u, v) positions, footprints and camera angles drawn from small pools,
  so keys repeat across requests;
* angles a few quantisation steps apart, so under the mid threshold a
  key's angle can drift one step at a time past the angle of its last
  recalculation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.texture.batch import RequestBatch, anisotropic_first_batch
from repro.texture.lod import compute_footprint
from repro.texture.mipmap import build_mipmaps
from repro.texture.requests import TextureRequest
from repro.texture.texture import Texture
from tests.reference import (
    AngleTaggedParentStore,
    request_batch,
    shade_atfim,
    trace_from_requests,
)

ANGLE_STEP = (math.pi / 2.0) / 127
"""One step of the 7-bit camera-angle quantiser."""

THRESHOLDS = [0.0, 2.5 * ANGLE_STEP, math.pi]

sides = st.sampled_from([1, 2, 4, 8])
positions = st.tuples(st.floats(-12.0, 20.0), st.floats(-12.0, 20.0))
footprints = st.builds(
    compute_footprint,
    st.floats(-8.0, 8.0),
    st.floats(-8.0, 8.0),
    st.floats(-8.0, 8.0),
    st.floats(-8.0, 8.0),
    max_anisotropy=st.sampled_from([1, 4, 16]),
)
angles = st.integers(0, 8).map(lambda steps: steps * ANGLE_STEP)


@st.composite
def request_streams(draw):
    width, height, seed = draw(sides), draw(sides), draw(st.integers(0, 99))
    data = np.random.default_rng(seed).random((height, width, 4))
    chain = build_mipmaps(Texture(texture_id=0, data=data))
    position_pool = draw(st.lists(positions, min_size=1, max_size=4))
    footprint_pool = draw(st.lists(footprints, min_size=1, max_size=3))
    angle_pool = draw(st.lists(angles, min_size=1, max_size=4))
    count = draw(st.integers(1, 24))
    requests = []
    for _ in range(count):
        u, v = draw(st.sampled_from(position_pool))
        requests.append(
            TextureRequest(
                pixel_x=0,
                pixel_y=0,
                texture_id=0,
                u=u,
                v=v,
                footprint=draw(st.sampled_from(footprint_pool)),
                camera_angle=draw(st.sampled_from(angle_pool)),
            )
        )
    return chain, requests


class TestBatchedReuseMatchesScalarStore:
    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=["0", "mid", "pi"])
    @settings(max_examples=150, deadline=None)
    @given(stream=request_streams())
    def test_colors_and_counts(self, threshold, stream):
        chain, requests = stream
        store = AngleTaggedParentStore(threshold=threshold)
        scalar = np.array(
            [shade_atfim(chain, request, store) for request in requests]
        )
        colors, producers = anisotropic_first_batch(
            chain,
            RequestBatch.from_trace(trace_from_requests(requests)),
            np.array([request.camera_angle for request in requests]),
            threshold,
        )
        recalculated = int(
            np.count_nonzero(producers == np.arange(len(producers)))
        )
        assert np.array_equal(colors, scalar)
        assert recalculated == store.recalculations
        assert len(producers) - recalculated == store.reuses

    def test_negative_threshold_rejected(self):
        chain = build_mipmaps(Texture(texture_id=0, data=np.zeros((2, 2, 4))))
        batch = request_batch(
            [compute_footprint(1.0, 0.0, 0.0, 1.0)], [0.5], [0.5]
        )
        with pytest.raises(ValueError):
            anisotropic_first_batch(chain, batch, np.array([0.1]), -1e-9)
