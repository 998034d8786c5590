"""Tests for the fitted-constant sensitivity study."""

import pytest

from repro.experiments import sensitivity
from tests.experiments.test_validate import assert_claims_hold


class TestSweeps:
    """Real sweeps: the design orderings hold at every point."""

    def test_overlap_sweep_keeps_orderings(self):
        data = sensitivity.overlap_factor(
            "riddick-640x480", factors=(0.3, 0.8)
        )
        assert_claims_hold(data)
        assert len(data.rows) == 2

    def test_latency_hiding_sweep_keeps_orderings(self):
        data = sensitivity.latency_hiding(
            "riddick-640x480", depths=(16, 128)
        )
        assert_claims_hold(data)

    @pytest.mark.parametrize("sweep", [
        sensitivity.overlap_factor,
        sensitivity.shader_work,
        sensitivity.latency_hiding,
    ])
    def test_default_sweep_keeps_its_claims(self, sweep):
        # doom3-640x480 at the default sweep values.
        assert_claims_hold(sweep())
