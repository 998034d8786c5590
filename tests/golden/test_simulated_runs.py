"""Pinned simulated output: every design on the fast set, exactly.

``simulated_runs.json`` holds the flattened :func:`repro.obs.run_stat_group`
snapshot of ``simulate_frame`` for each fast workload under all four
designs, plus ``doom3-640x480`` baseline and A-TFIM with anisotropic
filtering disabled (the Fig. 4 path), plus A-TFIM at every Fig. 14
threshold on ``hl2-640x480`` and ``fear-640x480`` (the angle-miss
branch at strict and loose thresholds).  The test compares every counter
exactly, so any change to simulated behaviour -- intended or not -- shows
up as a failing test and, once accepted, as a reviewed diff to the file.

The file is regenerated only by this command, from the repository root::

    PYTHONPATH=src python -m tests.golden.test_simulated_runs --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

import pytest

from repro.core import THRESHOLD_SWEEP, Design, simulate_frame
from repro.experiments.runner import FAST_WORKLOADS
from repro.obs import run_stat_group
from repro.workloads import workload_by_name

GOLDEN = Path(__file__).with_name("simulated_runs.json")

ISOTROPIC_WORKLOAD = "doom3-640x480"
ISOTROPIC_DESIGNS = (Design.BASELINE, Design.A_TFIM)
SWEEP_WORKLOADS = ("hl2-640x480", "fear-640x480")


def _points() -> Iterator[Tuple[str, str, Design, Dict[str, Any]]]:
    """``(key, workload, design, config overrides)`` for every pinned run."""
    for name in FAST_WORKLOADS:
        for design in Design:
            yield f"{name}/{design.value}", name, design, {}
    for design in ISOTROPIC_DESIGNS:
        yield (f"{ISOTROPIC_WORKLOAD}/{design.value}/iso",
               ISOTROPIC_WORKLOAD, design, {"aniso_enabled": False})
    for name in SWEEP_WORKLOADS:
        for angle in THRESHOLD_SWEEP:
            yield (f"{name}/{Design.A_TFIM.value}@{angle.label}", name,
                   Design.A_TFIM, {"angle_threshold": angle.effective_radians})


def simulated_runs() -> Dict[str, Dict[str, float]]:
    """Simulate every pinned point; one flattened snapshot per key."""
    traces = {}
    runs: Dict[str, Dict[str, float]] = {}
    for key, name, design, overrides in _points():
        workload = workload_by_name(name)
        if name not in traces:
            traces[name] = workload.trace()
        scene, trace = traces[name]
        config = workload.design_config(design, **overrides)
        run = simulate_frame(scene, trace, config)
        runs[key] = dict(run_stat_group(run).flatten())
    return runs


@pytest.fixture(scope="module")
def current():
    return simulated_runs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_pinned_points_are_the_golden_keys(golden):
    assert sorted(golden) == sorted(key for key, *_ in _points())


@pytest.mark.parametrize("key", [key for key, *_ in _points()])
def test_snapshot_matches_golden(current, golden, key):
    assert current[key] == golden[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.golden.test_simulated_runs --regenerate")
    GOLDEN.write_text(json.dumps(simulated_runs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
