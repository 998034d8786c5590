"""Tests for the design enum and configuration."""

import math

import pytest

from repro.core.designs import Design, DesignConfig


class TestDesign:
    def test_four_designs(self):
        assert len(list(Design)) == 4

    def test_hmc_usage(self):
        assert not Design.BASELINE.uses_hmc
        assert Design.B_PIM.uses_hmc
        assert Design.S_TFIM.uses_hmc
        assert Design.A_TFIM.uses_hmc

    def test_in_memory_filtering(self):
        assert not Design.BASELINE.filters_in_memory
        assert not Design.B_PIM.filters_in_memory
        assert Design.S_TFIM.filters_in_memory
        assert Design.A_TFIM.filters_in_memory


class TestDesignConfig:
    def test_default_threshold_is_001pi(self):
        config = DesignConfig()
        assert config.angle_threshold == pytest.approx(0.01 * math.pi)

    def test_effective_threshold_scales(self):
        config = DesignConfig(angle_threshold=0.1, angle_threshold_scale=8.0)
        assert config.effective_angle_threshold == pytest.approx(0.8)

    def test_external_bandwidth_depends_on_design(self):
        baseline = DesignConfig(design=Design.BASELINE)
        pim = DesignConfig(design=Design.B_PIM)
        assert baseline.external_bytes_per_cycle == pytest.approx(128.0)
        assert pim.external_bytes_per_cycle == pytest.approx(320.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignConfig(angle_threshold=-0.1)
        with pytest.raises(ValueError):
            DesignConfig(angle_threshold_scale=0.0)
        with pytest.raises(ValueError):
            DesignConfig(mtu_share=0)
        with pytest.raises(ValueError):
            DesignConfig(mtu_share=32)  # more than clusters

    @pytest.mark.parametrize("field, value", [
        ("angle_threshold", math.nan),
        ("angle_threshold_scale", math.nan),
        ("angle_threshold_scale", math.inf),  # 0 x inf is a NaN threshold
    ])
    def test_nan_threshold_rejected(self, field, value):
        # A NaN threshold passes a "< 0" test, and the two reuse models
        # read it in opposite ways: simulate_frame reuses every parent,
        # the renderer recalculates every one.
        with pytest.raises(ValueError):
            DesignConfig(**{field: value})
        with pytest.raises(ValueError):
            DesignConfig(mtu_share=3)  # does not divide the 16 clusters
