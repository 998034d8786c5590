"""Tests for the GB/s to bytes-per-cycle conversion."""

import pytest

from repro.sim.clock import bytes_per_cycle


class TestBytesPerCycle:
    def test_table1_gddr5(self):
        # 128 GB/s at 1 GHz is exactly 128 bytes per cycle.
        assert bytes_per_cycle(128.0, 1.0) == 128.0

    def test_scales_with_frequency(self):
        assert bytes_per_cycle(128.0, 2.0) == 64.0

    def test_zero_bandwidth_allowed(self):
        assert bytes_per_cycle(0.0) == 0.0

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            bytes_per_cycle(-1.0)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            bytes_per_cycle(10.0, 0.0)
