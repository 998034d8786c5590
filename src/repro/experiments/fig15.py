"""Fig. 15: rendered image quality (PSNR) vs camera-angle threshold.

For each workload, the frame is rendered functionally twice: exactly
(conventional filter order) and under A-TFIM's angle-threshold parent
reuse; the PSNR between the two is the paper's quality metric.  Identical
frames score the paper's cap of 99 dB; above ~70 dB differences are
imperceptible.

This is the only experiment that shades real pixels.  The renders are
runner points (:class:`~repro.experiments.runner.RenderKey`), so the
report computes them with its grid and this module only reads them;
``workload_names`` can restrict it to a subset.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.angle import THRESHOLD_SWEEP, AngleThreshold
from repro.experiments.common import FigureData
from repro.experiments.runner import ExperimentRunner
from repro.quality import psnr
from repro.render.renderer import SamplingMode


def run(
    runner: Optional[ExperimentRunner] = None,
    workload_names: Optional[Sequence[str]] = None,
    thresholds: Optional[Sequence[AngleThreshold]] = None,
) -> FigureData:
    """PSNR of each workload's A-TFIM render against its exact render.

    The quality model applies the paper's threshold *unscaled*: the
    error a stale reused parent introduces is governed by the absolute
    angle difference the threshold permits, which is resolution
    independent.  (The performance model scales the threshold by
    ``sim_scale`` instead, because recalculation *rates* depend on the
    per-cache-line angle gradient, which the miniature inflates --
    DESIGN.md section 5.)
    """
    runner = runner or ExperimentRunner(workload_names)
    thresholds = list(thresholds or THRESHOLD_SWEEP)
    columns = [threshold.label for threshold in thresholds]
    data = FigureData(
        figure="fig15",
        title="Image quality (PSNR, dB) per camera-angle threshold",
        columns=columns,
        paper_reference=(
            "PSNR decreases monotonically as the threshold loosens; at the "
            "strict end it approaches the identical-image cap of 99, and "
            "no-recalculation drops visibly (paper plots roughly 30-90 "
            "across apps)."
        ),
    )
    for workload in runner.workloads:
        reference = runner.render(workload, SamplingMode.EXACT).image
        values: Dict[str, float] = {}
        for threshold in thresholds:
            approximate = runner.render(
                workload, SamplingMode.ATFIM, threshold
            ).image
            values[threshold.label] = psnr(reference, approximate)
        data.add_row(workload.name, **values)
    means = [f"{label}={data.mean(label):.1f}dB" for label in columns]
    data.notes.append("means: " + ", ".join(means))
    return data


if __name__ == "__main__":
    print(run().format_table(precision=1))
