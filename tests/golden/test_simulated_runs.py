"""Pinned simulated output: every design on the fast set, exactly.

``simulated_runs.json`` holds the flattened :func:`repro.obs.run_stat_group`
snapshot of ``simulate_frame`` for each fast workload under all four
designs, plus ``doom3-640x480`` baseline and A-TFIM with anisotropic
filtering disabled (the Fig. 4 path), plus A-TFIM at every Fig. 14
threshold on ``hl2-640x480`` and ``fear-640x480`` (the angle-miss
branch at strict and loose thresholds).  It also holds, for the baseline
and A-TFIM, one flattened :func:`repro.obs.frame_stat_group` per frame of
``simulate_sequence`` over ``doom3-640x480`` under ``walk_forward(4.0)``
and ``strafe(3.0)``, three frames each, the second design run over the
traces the first one expanded.  The test compares every counter
exactly, so any change to simulated behaviour -- intended or not -- shows
up as a failing test and, once accepted, as a reviewed diff to the file.

The file is regenerated only by this command, from the repository root::

    PYTHONPATH=src python -m tests.golden.test_simulated_runs --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.core import (
    DEFAULT_THRESHOLD,
    THRESHOLD_SWEEP,
    Design,
    simulate_frame,
    simulate_sequence,
)
from repro.experiments.runner import FAST_WORKLOADS
from repro.obs import frame_stat_group, run_stat_group
from repro.workloads import workload_by_name
from repro.workloads.animation import strafe, walk_forward

GOLDEN = Path(__file__).with_name("simulated_runs.json")

ISOTROPIC_WORKLOAD = "doom3-640x480"
ISOTROPIC_DESIGNS = (Design.BASELINE, Design.A_TFIM)
SWEEP_WORKLOADS = ("hl2-640x480", "fear-640x480")
SEQUENCE_WORKLOAD = "doom3-640x480"
SEQUENCE_MOTIONS = (("walk", walk_forward(4.0)), ("strafe", strafe(3.0)))
SEQUENCE_DESIGNS = (Design.BASELINE, Design.A_TFIM)
SEQUENCE_FRAMES = 3


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


def _sequence_key(motion: str, design: Design, index: int) -> str:
    return f"{SEQUENCE_WORKLOAD}/{motion}/{design.value}/frame{index}"


def _keys() -> List[str]:
    """Every pinned key: the frame points', then one per sequence frame."""
    return [key for key, *_ in _points()] + [
        _sequence_key(motion, design, index)
        for motion, _factory in SEQUENCE_MOTIONS
        for design in SEQUENCE_DESIGNS
        for index in range(SEQUENCE_FRAMES)
    ]


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
    runs.update(simulated_sequences())
    return runs


def simulated_sequences() -> Dict[str, Dict[str, float]]:
    """Each design over each camera path, as the bench's ``animation``
    workload runs it: the designs one after another over one path's
    traces, from cold caches."""
    workload = workload_by_name(SEQUENCE_WORKLOAD)
    built = workload.build()
    renderer = workload.make_renderer()
    runs: Dict[str, Dict[str, float]] = {}
    for motion, factory in SEQUENCE_MOTIONS:
        cameras = factory(built.camera).cameras(built.camera, SEQUENCE_FRAMES)
        traces = [
            renderer.trace_only(built.scene, camera).trace for camera in cameras
        ]
        for design in SEQUENCE_DESIGNS:
            config = workload.design_config(
                design, angle_threshold=DEFAULT_THRESHOLD.effective_radians
            )
            result = simulate_sequence(built.scene, traces, config)
            for index, frame in enumerate(result.frames):
                runs[_sequence_key(motion, design, index)] = dict(
                    frame_stat_group(frame).flatten()
                )
    return runs


@pytest.fixture(scope="module")
def current():
    return simulated_runs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_pinned_points_are_the_golden_keys(golden):
    assert sorted(golden) == sorted(_keys())


@pytest.mark.parametrize("key", _keys())
def test_snapshot_matches_golden(current, golden, key):
    assert current[key] == golden[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.golden.test_simulated_runs --regenerate")
    GOLDEN.write_text(json.dumps(simulated_runs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
