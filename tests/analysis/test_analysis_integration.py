"""Integration tests: the toolkit against the real repo and real renders."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.invariants import check_run
from repro.analysis.linter import lint_paths
from repro.core import Design, simulate_frame, simulate_sequence
from repro.core.frontend import DesignRun

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestLintOnRepo:
    def test_simulator_source_is_clean(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro"])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_tests_and_benchmarks_are_clean(self):
        findings = lint_paths([REPO_ROOT / "tests"])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_exits_zero_on_clean_tree(self, capsys):
        exit_code = analysis_main(["lint", str(REPO_ROOT / "src" / "repro")])
        assert exit_code == 0
        assert "clean" in capsys.readouterr().out


class TestSeededViolations:
    def test_cli_exits_nonzero_on_seeded_violation(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            textwrap.dedent(
                """
                import random
                import time

                def tick():
                    try:
                        return time.time() + random.random()
                    except:
                        pass
                """
            )
        )
        exit_code = analysis_main(["lint", str(tmp_path)])
        assert exit_code == 1
        out = capsys.readouterr().out
        for rule_id in ("REP102", "REP103", "REP104", "REP105"):
            assert rule_id in out

    def test_cli_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    x()\nexcept:\n    pass\n")
        exit_code = analysis_main(["lint", "--format", "json", str(bad)])
        assert exit_code == 1
        findings = json.loads(capsys.readouterr().out)
        assert {f["rule_id"] for f in findings} == {"REP104", "REP105"}

    def test_cli_rejects_missing_path(self, tmp_path):
        assert analysis_main(["lint", str(tmp_path / "nope.py")]) == 2

    def test_rules_and_invariants_listings(self, capsys):
        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            f"REP{number}" for number in range(100, 110)
        ]
        assert analysis_main(["invariants"]) == 0
        *names, hint = capsys.readouterr().out.splitlines()
        assert names == [
            "texel-balance", "traffic-balance", "clock-monotonic",
            "energy-conserved", "cache-sanity", "batch-fetch-parity",
        ]
        assert "REPRO_CHECK_INVARIANTS=1" in hint


class TestInvariantsOnRenders:
    def test_small_render_all_designs_zero_violations(self, tiny_trace, fast_workload):
        scene, trace = tiny_trace
        for design in Design:
            config = fast_workload.design_config(design)
            run = simulate_frame(scene, trace, config, check_invariants=True)
            assert check_run(run, raise_on_violation=False) == []

    def test_sequence_checked_per_frame(self, tiny_trace, fast_workload):
        scene, trace = tiny_trace
        config = fast_workload.design_config(Design.A_TFIM)
        result = simulate_sequence(
            scene, [trace, trace], config, check_invariants=True
        )
        assert result.num_frames == 2

    def test_wiring_raises_on_injected_violation(
        self, tiny_trace, fast_workload, monkeypatch
    ):
        from repro.analysis import invariants as invariants_module

        def always_fails(run):
            yield "injected failure"

        monkeypatch.setattr(
            invariants_module,
            "_REGISTRY",
            [*invariants_module._REGISTRY, ("always-fails", always_fails)],
        )
        scene, trace = tiny_trace
        config = fast_workload.design_config(Design.BASELINE)
        with pytest.raises(invariants_module.InvariantError, match="injected"):
            simulate_frame(scene, trace, config, check_invariants=True)
        # Explicit opt-out skips the failing registry.
        run = simulate_frame(scene, trace, config, check_invariants=False)
        assert isinstance(run, DesignRun)

    def test_cli_check_invariants_flag(self, monkeypatch, capsys):
        import os

        from repro.analysis.invariants import ENV_FLAG
        from repro.cli import main as repro_main

        monkeypatch.delenv(ENV_FLAG, raising=False)
        exit_code = repro_main(["--check-invariants", "simulate", "doom3-640x480"])
        assert exit_code == 0
        assert "a-tfim" in capsys.readouterr().out
        # The flag is scoped to the command, not leaked into the process.
        assert ENV_FLAG not in os.environ
