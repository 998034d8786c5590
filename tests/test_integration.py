"""End-to-end integration tests: the paper's qualitative claims.

These run the full stack (procedural scene -> rasterizer -> request
expansion -> design texture paths -> pipeline model -> energy) on the
fast workload and assert the *shapes* the paper reports, which is the
reproduction's actual contract.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import Design, simulate_frame
from repro.core.angle import THRESHOLD_SWEEP
from repro.core.expansion import RequestExpander
from repro.energy import EnergyModel
from repro.experiments.runner import FAST_WORKLOADS
from repro.obs import run_stat_group
from repro.workloads import workload_by_name
from tests import reference


def _threshold_sweep(workload, scene, trace, **overrides):
    """A-TFIM at every Fig. 14 threshold, keyed by threshold label."""
    return {
        threshold.label: simulate_frame(scene, trace, workload.design_config(
            Design.A_TFIM, angle_threshold=threshold.effective_radians,
            **overrides,
        ))
        for threshold in THRESHOLD_SWEEP
    }


class TestDesignOrderings:
    def test_atfim_beats_every_other_design_on_render(self, design_runs):
        baseline = design_runs[Design.BASELINE].frame
        atfim = design_runs[Design.A_TFIM].frame
        for design in (Design.BASELINE, Design.B_PIM, Design.S_TFIM):
            assert atfim.frame_cycles < design_runs[design].frame.frame_cycles

    def test_atfim_texture_speedup_band(self, design_runs):
        """Fig. 10: A-TFIM speeds up texture filtering substantially."""
        baseline = design_runs[Design.BASELINE].frame
        speedup = design_runs[Design.A_TFIM].frame.texture_speedup_over(baseline)
        assert speedup > 1.5

    def test_atfim_render_speedup_band(self, design_runs):
        """Fig. 11: overall speedup in the tens of percent (paper: 43%
        average, up to 65%)."""
        baseline = design_runs[Design.BASELINE].frame
        speedup = design_runs[Design.A_TFIM].frame.speedup_over(baseline)
        assert 1.2 < speedup < 2.0

    def test_bpim_modest_improvement(self, design_runs):
        """Fig. 5: B-PIM helps (bandwidth/latency) but far less than
        A-TFIM."""
        baseline = design_runs[Design.BASELINE].frame
        bpim = design_runs[Design.B_PIM].frame.speedup_over(baseline)
        atfim = design_runs[Design.A_TFIM].frame.speedup_over(baseline)
        assert 1.0 < bpim < atfim

    def test_stfim_not_better_than_bpim(self, design_runs):
        """Section IV: S-TFIM's gain over B-PIM is trivial to negative."""
        bpim = design_runs[Design.B_PIM].frame
        stfim = design_runs[Design.S_TFIM].frame
        assert stfim.frame_cycles >= 0.95 * bpim.frame_cycles


class TestTrafficShapes:
    def test_stfim_inflates_texture_traffic(self, design_runs):
        """Fig. 12: S-TFIM multiplies external texture traffic (paper
        average 2.79x, bars 2.07-6.37)."""
        baseline = design_runs[Design.BASELINE].frame.traffic.external_texture
        stfim = design_runs[Design.S_TFIM].frame.traffic.external_texture
        assert 2.0 < stfim / baseline < 8.0

    def test_atfim_traffic_near_baseline_at_default(self, design_runs):
        """Fig. 12: A-TFIM-001pi sits near the baseline."""
        baseline = design_runs[Design.BASELINE].frame.traffic.external_texture
        atfim = design_runs[Design.A_TFIM].frame.traffic.external_texture
        assert 0.6 < atfim / baseline < 1.5

    def test_texture_dominates_baseline_traffic(self, design_runs):
        """Fig. 2: texture fetches are the largest traffic class."""
        breakdown = design_runs[Design.BASELINE].frame.traffic.breakdown()
        assert breakdown["texture"] == max(breakdown.values())
        assert breakdown["texture"] > 0.4

    def test_tfim_designs_move_traffic_internal(self, design_runs):
        for design in (Design.S_TFIM, Design.A_TFIM):
            assert design_runs[design].frame.traffic.internal_total > 0
        assert design_runs[Design.BASELINE].frame.traffic.internal_total == 0


class TestThresholdSweep:
    @pytest.fixture(scope="class")
    def sweep(self, fast_workload, fast_workload_trace):
        return _threshold_sweep(fast_workload, *fast_workload_trace)

    def test_speedup_monotone_in_threshold(self, sweep, design_runs):
        """Fig. 14: looser thresholds are never slower."""
        baseline = design_runs[Design.BASELINE].frame
        speedups = [
            sweep[t.label].frame.speedup_over(baseline) for t in THRESHOLD_SWEEP
        ]
        for tighter, looser in zip(speedups, speedups[1:]):
            assert looser >= tighter - 1e-9

    def test_traffic_monotone_in_threshold(self, sweep):
        """Fig. 12's threshold effect: looser thresholds fetch less."""
        traffic = [
            sweep[t.label].frame.traffic.external_texture
            for t in THRESHOLD_SWEEP
        ]
        for tighter, looser in zip(traffic, traffic[1:]):
            assert looser <= tighter + 1e-9

    def test_recalculations_monotone(self, sweep):
        recalcs = [
            sweep[t.label].path.parent_recalculations for t in THRESHOLD_SWEEP
        ]
        for tighter, looser in zip(recalcs, recalcs[1:]):
            assert looser <= tighter
        assert recalcs[-1] == 0  # no-recalculation

    def test_strictest_threshold_can_exceed_baseline_traffic(self, sweep,
                                                             design_runs):
        """Fig. 12: at strict thresholds recalculation can push A-TFIM
        traffic above baseline."""
        baseline = design_runs[Design.BASELINE].frame.traffic.external_texture
        strictest = sweep[THRESHOLD_SWEEP[0].label].frame.traffic.external_texture
        loosest = sweep[THRESHOLD_SWEEP[-1].label].frame.traffic.external_texture
        assert strictest > loosest
        assert loosest < baseline

    def test_consolidation_never_fetches_more_child_lines(
        self, sweep, fast_workload, fast_workload_trace
    ):
        """Child Texel Consolidation fetches at most the child lines the
        design fetches without it (doom3-640x480 at 0.01pi: 1,307 vs
        3,057).  Replay order follows completion times, so this is an
        observed property of these named points, not a structural one."""
        unconsolidated = _threshold_sweep(
            fast_workload, *fast_workload_trace, consolidation_enabled=False
        )
        for threshold in THRESHOLD_SWEEP:
            on = sweep[threshold.label].path.activity()
            off = unconsolidated[threshold.label].path.activity()
            assert on.child_lines_fetched <= off.child_lines_fetched, (
                threshold.label
            )


class TestExternalLinkBandwidth:
    """A wider external link never slows a PIM design.

    Only frame cycles are monotone: mean texture latency can tick up as
    the link widens (B-PIM on riddick-640x480 goes from 2048.0 to
    2050.25 cycles between x2 and x3).
    """

    DESIGNS = (Design.B_PIM, Design.S_TFIM, Design.A_TFIM)
    SCALES = (0.5, 1.0, 2.0)

    @pytest.fixture(scope="class")
    def frame_cycles(self, fast_workload, fast_workload_trace):
        scene, trace = fast_workload_trace
        paper = fast_workload.hmc_config()
        cycles = {}
        for design in self.DESIGNS:
            cycles[design] = []
            for scale in self.SCALES:
                external = paper.external_bandwidth_gb_per_s * scale
                # HmcConfig rejects a cube whose vaults are slower than
                # its links.
                hmc = dataclasses.replace(
                    paper,
                    external_bandwidth_gb_per_s=external,
                    internal_bandwidth_gb_per_s=max(
                        paper.internal_bandwidth_gb_per_s, external
                    ),
                )
                config = fast_workload.design_config(design, hmc=hmc)
                run = simulate_frame(scene, trace, config)
                cycles[design].append(run.frame.frame_cycles)
        return cycles

    @pytest.mark.parametrize(
        "design", DESIGNS, ids=lambda design: design.value
    )
    def test_frame_cycles_never_rise(self, frame_cycles, design):
        cycles = frame_cycles[design]
        for narrower, wider in zip(cycles, cycles[1:]):
            assert wider <= narrower


class TestAnisotropyCap:
    """A higher anisotropy cap never lowers any request's texel count.

    The cap only clamps each footprint's probe count, so every cap
    rasterizes the same requests in the same order and they line up by
    index (hl2-640x480's mean goes 7.71 -> 14.75 -> 23.84 -> 33.22 ->
    43.12 texels over caps 1 -> 16).
    """

    CAPS = (1, 2, 4, 8, 16)

    @pytest.mark.parametrize("name", FAST_WORKLOADS)
    def test_texels_never_fall(self, name):
        base = workload_by_name(name)
        previous = previous_pixels = None
        for cap in self.CAPS:
            workload = dataclasses.replace(base, max_anisotropy=cap)
            scene, trace = workload.trace()
            pixels = np.stack([trace.pixel_x, trace.pixel_y])
            texels = RequestExpander(scene).expand_frame(trace).texels
            if previous is not None:
                assert np.array_equal(pixels, previous_pixels)
                assert bool(np.all(texels >= previous)), f"cap {cap}"
            previous, previous_pixels = texels, pixels


class TestEnergyShapes:
    def test_fig13_orderings(self, design_runs):
        model = EnergyModel()
        totals = {
            design: model.frame_energy(design, run.frame).total
            for design, run in design_runs.items()
        }
        assert totals[Design.A_TFIM] < totals[Design.BASELINE]
        assert totals[Design.S_TFIM] > totals[Design.B_PIM]

    def test_atfim_energy_saving_band(self, design_runs):
        """Paper: ~22% less energy than baseline."""
        model = EnergyModel()
        baseline = model.frame_energy(
            Design.BASELINE, design_runs[Design.BASELINE].frame
        ).total
        atfim = model.frame_energy(
            Design.A_TFIM, design_runs[Design.A_TFIM].frame
        ).total
        assert 0.6 < atfim / baseline < 0.95


class TestWarmup:
    def test_warmup_reduces_cold_misses(self, fast_workload, fast_workload_trace):
        """Only where the scaled caches can keep a line for its reuse:
        doom3-640x480's frame evicts every warm line before reusing it,
        so its warm frame equals the cold one bit for bit, while
        riddick-640x480's warm frame misses the L2 less.  A model change
        that moves either point fails here."""
        scene, trace = fast_workload_trace
        config = fast_workload.design_config(Design.BASELINE)
        cold = reference.cold_run(scene, trace, config)
        warm = simulate_frame(scene, trace, config)
        assert (dict(run_stat_group(warm).flatten())
                == dict(run_stat_group(cold).flatten()))

        workload = workload_by_name("riddick-640x480")
        scene, trace = workload.trace()
        config = workload.design_config(Design.BASELINE)
        cold = reference.cold_run(scene, trace, config)
        warm = simulate_frame(scene, trace, config)
        assert (dict(run_stat_group(warm).flatten())
                != dict(run_stat_group(cold).flatten()))
        assert warm.frame.cache_stats.l2_misses < cold.frame.cache_stats.l2_misses
        assert warm.frame.traffic.external_texture < (
            cold.frame.traffic.external_texture
        )

    def test_determinism(self, fast_workload, fast_workload_trace):
        scene, trace = fast_workload_trace
        config = fast_workload.design_config(Design.A_TFIM)
        first = simulate_frame(scene, trace, config)
        # A trace object of its own, so the second call simulates again
        # rather than being served the first call's run.
        second = simulate_frame(scene, dataclasses.replace(trace), config)
        assert first.frame.frame_cycles == second.frame.frame_cycles
        assert first.frame.traffic.external_texture == (
            second.frame.traffic.external_texture
        )
