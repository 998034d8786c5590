"""Pinned figure tables: everything ``python -m repro report --fast`` prints.

``figure_tables.json`` holds Tables I and II as text and, for every
figure table of the fast-set report (figs 2, 4, 5, 10-16, the Sec. VII-E
overhead and the four ablations), its columns and each row's label and
values.  The test compares every value exactly, so any change that moves
a reported number -- intended or not -- shows up as a failing test and,
once accepted, as a reviewed diff to the file.

``fig15_images.json`` pins the images behind Fig. 15's PSNR values: for
each ``Renderer.render`` call the report makes (every fast workload's
exact render, then its A-TFIM render at each threshold), the sha256 of
the image and the render's parent reuse and recalculation counts.  A
change that alters an image but not its PSNR shows up there.

Every fast-set fragment lands on its own pixel, so neither file can see
the order in which overlapping fragments are written.
``overdraw_renders.json`` pins two frames whose fragments overdraw,
hl2-640x480 and fear-640x480: for the exact render and the A-TFIM
render at each threshold of ``THRESHOLD_SWEEP``, the fragment and
covered-pixel counts, the sha256 of the image and of the depth buffer,
and the parent reuse and recalculation counts.

The fast set and the overdrawn scenes cap anisotropy at 8 probes.
``sixteen_probe_renders.json`` pins the same renders of the three
workloads whose views take 16-probe footprints: doom3-, fear- and
hl2-1280x1024 (1,312, 456 and 2,928 of their requests).

All four files are regenerated only by this command, from the
repository root::

    PYTHONPATH=src python -m tests.golden.test_figure_tables --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.core.angle import THRESHOLD_SWEEP
from repro.experiments import tables
from repro.experiments.common import FigureData
from repro.experiments.report import figure_tables
from repro.experiments.runner import FAST_WORKLOADS, ExperimentRunner
from repro.render.renderer import Renderer, SamplingMode
from repro.workloads import workload_by_name

GOLDEN = Path(__file__).with_name("figure_tables.json")
IMAGES = Path(__file__).with_name("fig15_images.json")
OVERDRAW = Path(__file__).with_name("overdraw_renders.json")
OVERDRAW_WORKLOADS = ("hl2-640x480", "fear-640x480")
SIXTEEN_PROBE = Path(__file__).with_name("sixteen_probe_renders.json")
SIXTEEN_PROBE_WORKLOADS = ("doom3-1280x1024", "fear-1280x1024", "hl2-1280x1024")

TEXT_TABLES = {
    "Table I": tables.format_table1,
    "Table II": tables.format_table2,
}
FIGURES = (
    "fig2", "fig4", "fig5", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "sec7e", "ablation-mtu-share",
    "ablation-consolidation", "ablation-aniso-cap", "ablation-internal-bw",
)


class Report(NamedTuple):
    tables: Dict[str, Any]
    """Every table of the fast-set report, keyed by its name."""
    images: List[Dict[str, Any]]
    """One digest per image the report renders, in render order."""


def _pinned(data: FigureData) -> Dict[str, Any]:
    return {
        "columns": list(data.columns),
        "rows": [[row.label, dict(row.values)] for row in data.rows],
    }


def report_tables() -> Report:
    """Run the fast-set report, recording every image it renders."""
    images: List[Dict[str, Any]] = []
    render = Renderer.render

    def recording_render(renderer, scene, camera,
                         mode=SamplingMode.EXACT, angle_threshold=0.0):
        output = render(renderer, scene, camera, mode, angle_threshold)
        images.append({
            "scene": scene.name,
            "mode": mode.value,
            "angle_threshold": angle_threshold,
            "sha256": hashlib.sha256(output.image.tobytes()).hexdigest(),
            "parent_reuses": output.parent_reuses,
            "parent_recalculations": output.parent_recalculations,
        })
        return output

    pinned: Dict[str, Any] = {name: text() for name, text in TEXT_TABLES.items()}
    runner = ExperimentRunner(FAST_WORKLOADS)
    with mock.patch.object(Renderer, "render", recording_render):
        for data, _precision in figure_tables(runner):
            pinned[data.figure] = _pinned(data)
    return Report(tables=pinned, images=images)


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def sweep_renders(
    names: Sequence[str],
) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Fig. 15's renders of each workload: the exact render, then A-TFIM
    at each threshold of ``THRESHOLD_SWEEP``; and each workload's most
    probes per request (its renders share one view)."""
    renders = [(SamplingMode.EXACT, 0.0)] + [
        (SamplingMode.ATFIM, threshold.effective_radians)
        for threshold in THRESHOLD_SWEEP
    ]
    pins: List[Dict[str, Any]] = []
    most_probes: Dict[str, int] = {}
    for name in names:
        workload = workload_by_name(name)
        built = workload.build()
        renderer = workload.make_renderer()
        for mode, angle_threshold in renders:
            output = renderer.render(
                built.scene, built.camera, mode, angle_threshold
            )
            depth = output.framebuffer.depth
            pins.append({
                "workload": name,
                "mode": mode.value,
                "angle_threshold": angle_threshold,
                "fragments": output.trace.num_fragments,
                "pixels": int(np.isfinite(depth).sum()),
                "image_sha256": _sha256(output.image),
                "depth_sha256": _sha256(depth),
                "parent_reuses": output.parent_reuses,
                "parent_recalculations": output.parent_recalculations,
            })
        most_probes[name] = int(output.trace.footprint.probes.max())
    return pins, most_probes


@pytest.fixture(scope="module")
def current():
    return report_tables()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_pinned_tables_are_the_golden_keys(current, golden):
    assert list(current.tables) == list(golden) == [*TEXT_TABLES, *FIGURES]


@pytest.mark.parametrize("name", [*TEXT_TABLES, *FIGURES])
def test_table_matches_golden(current, golden, name):
    assert current.tables[name] == golden[name]


def test_fig15_images_match_golden(current):
    pinned = json.loads(IMAGES.read_text())
    assert len(pinned) == len(FAST_WORKLOADS) * 6
    assert current.images == pinned


def test_overdraw_renders_match_golden():
    pinned = json.loads(OVERDRAW.read_text())
    assert len(pinned) == len(OVERDRAW_WORKLOADS) * (1 + len(THRESHOLD_SWEEP))
    # The pins are only worth having while the scenes overdraw.
    assert all(pin["fragments"] > pin["pixels"] for pin in pinned)
    assert sweep_renders(OVERDRAW_WORKLOADS)[0] == pinned


def test_sixteen_probe_renders_match_golden():
    pinned = json.loads(SIXTEEN_PROBE.read_text())
    assert len(pinned) == (
        len(SIXTEEN_PROBE_WORKLOADS) * (1 + len(THRESHOLD_SWEEP))
    )
    pins, most_probes = sweep_renders(SIXTEEN_PROBE_WORKLOADS)
    # The pins are only worth having while the views take 16 probes.
    assert most_probes == {name: 16 for name in SIXTEEN_PROBE_WORKLOADS}
    assert pins == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.golden.test_figure_tables --regenerate")
    report = report_tables()
    GOLDEN.write_text(
        json.dumps(report.tables, indent=1, allow_nan=False) + "\n"
    )
    IMAGES.write_text(
        json.dumps(report.images, indent=1, allow_nan=False) + "\n"
    )
    for path, names in (
        (OVERDRAW, OVERDRAW_WORKLOADS),
        (SIXTEEN_PROBE, SIXTEEN_PROBE_WORKLOADS),
    ):
        path.write_text(
            json.dumps(sweep_renders(names)[0], indent=1, allow_nan=False)
            + "\n"
        )
    print(f"wrote {GOLDEN}, {IMAGES}, {OVERDRAW} and {SIXTEEN_PROBE}")
