"""Unit tests for the runtime invariant checker, one per invariant."""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.analysis import invariants
from repro.analysis.invariants import (
    InvariantError,
    check_energy_breakdown,
    check_run,
    checks_enabled,
    invariant_names,
)
from repro.core import Design
from repro.energy.model import EnergyBreakdown
from repro.memory.traffic import TrafficClass


def violated(run, name):
    """The messages a given invariant produced for ``run``."""
    return [
        violation
        for violation in check_run(run, raise_on_violation=False)
        if violation.invariant == name
    ]


class TestRegistry:
    def test_at_least_four_invariants_registered(self):
        names = invariant_names()
        assert len(set(names)) >= 4

    def test_expected_invariants_present(self):
        names = set(invariant_names())
        assert {"texel-balance", "traffic-balance", "clock-monotonic",
                "energy-conserved", "cache-sanity"} <= names


class TestCleanRuns:
    def test_all_designs_drain_clean(self, design_runs):
        for design, run in design_runs.items():
            assert check_run(run, raise_on_violation=False) == [], design

    def test_raise_mode_passes_silently_when_clean(self, design_runs):
        check_run(design_runs[Design.A_TFIM])


class TestTexelBalance:
    def test_lost_completion_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.frame.texture_latency.count -= 1  # repro: noqa(REP101) -- deliberately corrupting a copy
        messages = violated(run, "texel-balance")
        assert messages and "completions" in messages[0].message

    def test_unserved_request_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.B_PIM])
        run.frame.path_activity.gpu_texture.requests -= 1
        assert violated(run, "texel-balance")

    def test_atfim_child_line_drift_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.A_TFIM])
        run.path.child_lines_fetched += 1
        assert violated(run, "texel-balance")

    def test_atfim_parent_classification_drift_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.A_TFIM])
        run.path.parent_reuses += 1
        assert violated(run, "texel-balance")


class TestTrafficBalance:
    def test_hmc_link_byte_symmetry(self, design_runs):
        run = copy.deepcopy(design_runs[Design.B_PIM])
        run.frame.traffic.external[TrafficClass.TEXTURE] += 64.0
        messages = violated(run, "traffic-balance")
        assert messages and "HMC links" in messages[0].message

    def test_internal_vault_byte_symmetry(self, design_runs):
        run = copy.deepcopy(design_runs[Design.S_TFIM])
        run.frame.traffic.internal[TrafficClass.TEXTURE] -= 64.0
        assert violated(run, "traffic-balance")

    def test_gddr5_bus_byte_symmetry(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.path.gddr5.bus.total_bytes += 64.0
        messages = violated(run, "traffic-balance")
        assert messages and "GDDR5" in messages[0].message

    def test_negative_byte_count_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.frame.traffic.external[TrafficClass.GEOMETRY] = -1.0
        messages = violated(run, "traffic-balance")
        assert any("negative" in m.message for m in messages)


class TestClockMonotonic:
    def test_negative_stage_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.frame.stages.rop = -1.0
        messages = violated(run, "clock-monotonic")
        assert any("negative duration" in m.message for m in messages)

    def test_overlap_rule_lower_bound(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        parts = [run.frame.stages.shader, run.frame.stages.texture,
                 run.frame.stages.rop]
        run.frame.stages.fragment_stage = max(parts) / 2.0
        assert violated(run, "clock-monotonic")

    def test_overlap_rule_upper_bound(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        parts = [run.frame.stages.shader, run.frame.stages.texture,
                 run.frame.stages.rop]
        run.frame.stages.fragment_stage = sum(parts) * 2.0 + 1.0
        assert violated(run, "clock-monotonic")

    def test_completion_before_issue_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.frame.texture_latency.max_latency = run.frame.stages.texture * 2 + 1
        messages = violated(run, "clock-monotonic")
        assert any("makespan" in m.message for m in messages)


class TestEnergyConserved:
    def test_clean_breakdown_passes(self):
        breakdown = EnergyBreakdown(shader=1.0, dram=2.0, static=0.5)
        assert list(check_energy_breakdown(breakdown)) == []

    def test_component_added_without_total_update_detected(self):
        @dataclass
        class DriftedBreakdown(EnergyBreakdown):
            """A component added without updating the total property."""

            mystery: float = 1.0

        messages = list(check_energy_breakdown(DriftedBreakdown(shader=1.0)))
        assert any("sum of components" in message for message in messages)

    def test_negative_component_detected(self):
        messages = list(check_energy_breakdown(EnergyBreakdown(shader=-1.0)))
        assert any("negative energy component" in message for message in messages)

    def test_invariant_clean_on_real_runs(self, design_runs):
        for run in design_runs.values():
            assert violated(run, "energy-conserved") == []


class TestCacheSanity:
    def test_l2_access_drift_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.frame.path_activity.l2_accesses += 1
        assert violated(run, "cache-sanity")

    def test_negative_counter_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.frame.cache_stats.l1_hits = -1
        messages = violated(run, "cache-sanity")
        assert any("negative cache counter" in m.message for m in messages)

    def test_phantom_l2_outcomes_detected(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.frame.cache_stats.l2_hits += 1
        messages = violated(run, "cache-sanity")
        assert any("outcomes" in m.message for m in messages)


class TestErrorReporting:
    def test_raise_mode_raises_with_locations(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.frame.stages.rop = -1.0
        with pytest.raises(InvariantError) as excinfo:
            check_run(run)
        assert "clock-monotonic" in str(excinfo.value)
        assert excinfo.value.violations

    def test_violation_format_names_invariant(self, design_runs):
        run = copy.deepcopy(design_runs[Design.BASELINE])
        run.frame.stages.rop = -1.0
        violation = check_run(run, raise_on_violation=False)[0]
        assert violation.format().startswith("[clock-monotonic]")


class TestEnablement:
    def test_env_flag_parsing(self, monkeypatch):
        for value, expected in (
            ("1", True), ("true", True), ("on", True), ("yes", True),
            ("0", False), ("", False), ("off", False),
        ):
            monkeypatch.setenv(invariants.ENV_FLAG, value)
            assert checks_enabled() is expected
        monkeypatch.delenv(invariants.ENV_FLAG)
        assert checks_enabled() is False


class TestImportFootprint:
    def test_importing_invariants_does_not_load_the_linter(self):
        # The simulator imports the invariants at frame drain time; the
        # lint engine must not ride along.  A fresh interpreter, because
        # this one has long since imported the linter's modules.
        src = Path(repro.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.analysis.invariants; "
             "print(*sorted(name for name in sys.modules "
             "if name.startswith('repro.analysis.')))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["repro.analysis.invariants"]
