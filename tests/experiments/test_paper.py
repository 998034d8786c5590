"""Tests for the paper-numbers registry."""

import pytest

from repro.experiments.paper import PAPER, STFIM_TRAFFIC_BARS, stat


class TestRegistry:
    def test_headline_numbers(self):
        assert stat("atfim_texture_speedup").mean == 3.97
        assert stat("atfim_texture_speedup").best == 6.4
        assert stat("atfim_render_speedup").mean == 1.43
        assert stat("stfim_traffic").mean == 2.79
        assert stat("atfim_energy").mean == 0.78

    def test_stfim_bars_cover_table2(self):
        from repro.workloads import workload_names

        assert set(STFIM_TRAFFIC_BARS) == set(workload_names())

    def test_stfim_bars_average_near_quoted_mean(self):
        values = list(STFIM_TRAFFIC_BARS.values())
        mean = sum(values) / len(values)
        assert mean == pytest.approx(stat("stfim_traffic").mean, abs=1.0)

    def test_unknown_stat_rejected(self):
        with pytest.raises(KeyError):
            stat("warp_drive_speedup")

    def test_every_stat_described(self):
        for name, value in PAPER.items():
            assert value.description, name

