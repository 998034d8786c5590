"""Tests for the texture-unit resource bundle, through its replay form.

Requests go through :class:`~repro.core.paths.UnitReplayState`, the form
a replay session serves its texture units with, and the units are read
after ``flush()``.  A per-access check that the sessions make once per
frame is tested on the per-access oracle in ``tests/reference.py``.
"""

import pytest

from repro.core.paths import UnitReplayState
from repro.gpu.config import GPU_TEXTURE_UNIT, TextureUnitConfig
from repro.gpu.texunit import TextureUnit
from tests import reference

RATES = TextureUnitConfig(address_alus=4, filter_alus=8, pipeline_depth=0.0)


def through(*units):
    """The replay form over ``units``."""
    return UnitReplayState(list(units))


class TestTextureUnit:
    def test_address_throughput(self):
        state = through(TextureUnit("tu", RATES))
        assert state.generate_addresses(0, 0.0, 32) == pytest.approx(8.0)

    def test_filter_throughput(self):
        state = through(TextureUnit("tu", RATES))
        assert state.filter_texels(0, 0.0, 32) == pytest.approx(4.0)

    def test_pipeline_depth_added(self):
        state = through(TextureUnit("tu", TextureUnitConfig(
            address_alus=4, filter_alus=8, pipeline_depth=8.0)))
        assert state.generate_addresses(0, 0.0, 4) == pytest.approx(1.0 + 8.0)

    def test_zero_texels_free(self):
        state = through(TextureUnit("tu", GPU_TEXTURE_UNIT))
        assert state.generate_addresses(0, 5.0, 0) == 5.0
        assert state.filter_texels(0, 5.0, 0) == 5.0

    def test_activity_counts(self):
        unit = TextureUnit("tu", GPU_TEXTURE_UNIT)
        state = through(unit)
        state.requests[0] += 1
        state.generate_addresses(0, 0.0, 32)
        state.filter_texels(0, 0.0, 32)
        state.flush()
        assert unit.activity.requests == 1
        assert unit.activity.address_ops == 32
        assert unit.activity.filter_ops == 32

    def test_activity_merge(self):
        left = TextureUnit("a", GPU_TEXTURE_UNIT)
        right = TextureUnit("b", GPU_TEXTURE_UNIT)
        state = through(left, right)
        state.generate_addresses(0, 0.0, 8)
        state.generate_addresses(1, 0.0, 4)
        state.flush()
        left.activity.merge(right.activity)
        assert left.activity.address_ops == 12

    def test_negative_texels_rejected(self):
        """Sessions refuse a frame with a negative texel count once
        (``tests/core/test_replay_sessions.py``); the oracle checks each
        request."""
        unit = TextureUnit("tu", GPU_TEXTURE_UNIT)
        with pytest.raises(ValueError):
            reference.generate_addresses(unit, 0.0, -1)
        with pytest.raises(ValueError):
            reference.filter_texels(unit, 0.0, -1)

    def test_reset(self):
        unit = TextureUnit("tu", GPU_TEXTURE_UNIT)
        state = through(unit)
        state.generate_addresses(0, 0.0, 8)
        state.flush()
        unit.reset()
        assert unit.activity.address_ops == 0
        assert unit.address_stage.next_issue == 0.0
