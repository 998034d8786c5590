"""Smoke tests: every example runs end-to-end and prints its story.

Examples are the library's front door; they must not rot.  Each runs as
a subprocess on the fastest workload.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=300):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "riddick-640x480")
        for token in ("baseline", "b-pim", "s-tfim", "a-tfim", "render x"):
            assert token in out

    def test_quickstart_rejects_unknown_workload(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py"), "nosuchgame"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1

    def test_quality_tradeoff(self):
        out = run_example("quality_tradeoff.py", "riddick-640x480")
        assert "PSNR" in out
        assert "A-TFIM-001pi" in out
        assert "A-TFIM-no" in out

    def test_memory_system_explorer(self):
        out = run_example("memory_system_explorer.py", "riddick-640x480")
        assert "int:ext ratio" in out
        assert "gddr5 scale" in out

    def test_game_benchmark_suite(self):
        out = run_example("game_benchmark_suite.py", "--fast")
        assert "geometric means across workloads" in out
        means = out.split("geometric means across workloads")[1]
        rows = [line.split() for line in means.splitlines()[1:]]
        designs = [row[0] for row in rows]
        assert designs == ["baseline", "b-pim", "s-tfim", "a-tfim"]
        for row in rows:
            assert row[1::2] == ["render", "texture", "traffic", "energy"]

    def test_animated_sequence(self):
        out = run_example("animated_sequence.py", "riddick-640x480", "3")
        assert "walk forward" in out
        assert "strafe" in out
        assert "sequence speedup" in out
