"""Tests for the package format arithmetic."""

import pytest

from repro.memory.packets import PacketSpec
from repro.texture.address import LINE_BYTES
from repro.texture.texture import TEXEL_BYTES


class TestPacketSpec:
    def test_defaults_follow_methodology(self):
        spec = PacketSpec()
        assert spec.read_request_bytes == 16
        assert spec.read_response_bytes == 64 + 16
        # The paper's offloading package is 4x a read request.
        assert spec.texture_request_bytes == 4 * spec.read_request_bytes
        assert spec.parent_texel_request_bytes == spec.texture_request_bytes

    def test_texture_response_single_sample_equals_read_response(self):
        spec = PacketSpec()
        assert spec.texture_response_bytes(1) == spec.read_response_bytes

    def test_texture_response_grows_with_samples(self):
        spec = PacketSpec()
        small = spec.texture_response_bytes(1)
        large = spec.texture_response_bytes(40)
        assert large > small
        assert (large - spec.header_bytes) % LINE_BYTES == 0

    def test_parent_texel_response_single_line_up_to_16_parents(self):
        spec = PacketSpec()
        # 16 four-byte parents = 64 bytes = exactly one line.
        assert spec.parent_texel_response_bytes(16) == spec.read_response_bytes
        assert spec.parent_texel_response_bytes(8) == spec.read_response_bytes

    def test_parent_texel_response_positive_count_required(self):
        spec = PacketSpec()
        with pytest.raises(ValueError):
            spec.parent_texel_response_bytes(0)

    def test_texels_per_line(self):
        # A response line holds LINE_BYTES // TEXEL_BYTES = 16 texels.
        spec = PacketSpec()
        assert LINE_BYTES // TEXEL_BYTES == 16
        assert spec.parent_texel_response_bytes(16) == LINE_BYTES + spec.header_bytes
        assert spec.parent_texel_response_bytes(17) == 2 * LINE_BYTES + spec.header_bytes
        assert spec.texture_response_bytes(16) == spec.texture_response_bytes(1)
        assert spec.texture_response_bytes(17) == spec.texture_response_bytes(32)

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketSpec(header_bytes=-1)
        with pytest.raises(ValueError):
            PacketSpec(texture_request_scale=0)

    def test_custom_scale(self):
        spec = PacketSpec(texture_request_scale=2)
        assert spec.texture_request_bytes == 2 * spec.read_request_bytes
