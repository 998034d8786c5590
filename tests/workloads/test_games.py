"""Tests for the Table II workload registry."""

import pytest

from repro.core import Design
from repro.memory.hmc import HmcConfig
from repro.workloads import WORKLOADS, workload_by_name, workload_names


class TestRegistry:
    def test_ten_benchmarks(self):
        # Table II: doom3 x3, fear x3, hl2 x2, riddick, wolfenstein.
        assert len(WORKLOADS) == 10

    def test_table2_games_present(self):
        games = {workload.game for workload in WORKLOADS}
        assert games == {"doom3", "fear", "hl2", "riddick", "wolfenstein"}

    def test_table2_resolutions(self):
        doom3 = [w for w in WORKLOADS if w.game == "doom3"]
        labels = {w.resolution_label for w in doom3}
        assert labels == {"1280x1024", "640x480", "320x240"}

    def test_libraries_match_table2(self):
        by_game = {w.game: w.library for w in WORKLOADS}
        assert by_game["doom3"] == "OpenGL"
        assert by_game["fear"] == "D3D"
        assert by_game["hl2"] == "D3D"
        assert by_game["riddick"] == "OpenGL"
        assert by_game["wolfenstein"] == "D3D"

    def test_lookup_by_name(self):
        workload = workload_by_name("hl2-640x480")
        assert workload.game == "hl2"
        with pytest.raises(KeyError):
            workload_by_name("quake3-640x480")

    def test_names_unique(self):
        names = workload_names()
        assert len(names) == len(set(names))


class TestWorkloadProperties:
    def test_sim_resolution_scaled(self):
        workload = workload_by_name("doom3-1280x1024")
        assert workload.sim_width == 1280 // workload.sim_scale
        assert workload.sim_height == 1024 // workload.sim_scale

    def test_higher_resolution_higher_aniso(self):
        high = workload_by_name("doom3-1280x1024")
        low = workload_by_name("doom3-320x240")
        assert high.max_anisotropy > low.max_anisotropy

    def test_tile_size_scaled(self):
        workload = workload_by_name("doom3-640x480")
        assert workload.sim_tile_size == max(2, 16 // workload.sim_scale)

    def test_trace_deterministic(self):
        workload = workload_by_name("riddick-640x480")
        _, first = workload.trace()
        _, second = workload.trace()
        assert first.num_fragments == second.num_fragments
        assert first.requests[0] == second.requests[0]

    def test_trace_covers_frame(self):
        workload = workload_by_name("riddick-640x480")
        _, trace = workload.trace()
        assert trace.num_fragments >= 0.5 * workload.sim_width * workload.sim_height


class TestDesignConfigBuilder:
    def test_design_config_wires_scales(self):
        workload = workload_by_name("doom3-640x480")
        config = workload.design_config(Design.A_TFIM)
        assert config.design is Design.A_TFIM
        assert config.angle_threshold_scale == float(workload.sim_scale)
        assert config.gddr5.bandwidth_gb_per_s < 128.0
        assert config.hmc.internal_bandwidth_gb_per_s > (
            config.hmc.external_bandwidth_gb_per_s
        )

    def test_bandwidth_ratios_preserved(self):
        workload = workload_by_name("doom3-640x480")
        config = workload.design_config(Design.B_PIM)
        assert config.hmc.external_bandwidth_gb_per_s / (
            config.gddr5.bandwidth_gb_per_s
        ) == pytest.approx(320.0 / 128.0)
        assert config.hmc.internal_bandwidth_gb_per_s / (
            config.hmc.external_bandwidth_gb_per_s
        ) == pytest.approx(512.0 / 320.0)

    def test_hmc_config_is_the_paper_cube(self):
        """Table I's cube (320 GB/s links, 512 GB/s over the vaults),
        divided by the workload's bandwidth scale like the GDDR5."""
        for workload in WORKLOADS:
            scale = workload.bandwidth_scale
            assert workload.hmc_config() == HmcConfig(
                external_bandwidth_gb_per_s=320.0 / scale,
                internal_bandwidth_gb_per_s=512.0 / scale,
            )

    def test_every_design_runs_on_the_paper_hmc(self):
        for workload in WORKLOADS:
            paper = workload.hmc_config()
            for design in Design:
                assert workload.design_config(design).hmc == paper

    def test_explicit_hmc_override_wins(self):
        # ablations.internal_bandwidth varies the cube this way.
        workload = workload_by_name("riddick-640x480")
        custom = HmcConfig(external_bandwidth_gb_per_s=99.0,
                           internal_bandwidth_gb_per_s=101.0)
        config = workload.design_config(Design.A_TFIM, hmc=custom)
        assert config.hmc == custom

    def test_overrides_pass_through(self):
        workload = workload_by_name("doom3-640x480")
        config = workload.design_config(Design.A_TFIM, angle_threshold=0.5)
        assert config.angle_threshold == 0.5

    def test_scaled_caches_smaller_than_table1(self):
        workload = workload_by_name("doom3-640x480")
        gpu = workload.gpu_config()
        assert gpu.l1_cache.size_bytes < 16 * 1024
        assert gpu.l2_cache.size_bytes < 128 * 1024

    def test_cache_scales_with_sim_size(self):
        small = workload_by_name("doom3-320x240").gpu_config()
        large = workload_by_name("doom3-1280x1024").gpu_config()
        assert large.l2_cache.size_bytes > small.l2_cache.size_bytes
