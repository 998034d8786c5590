"""Sensitivity of the paper's conclusions to the model's fitted constants.

The pipeline model has exactly two fitted constants (DESIGN.md section
5): the fragment-stage ``overlap_factor`` and the per-fragment shader
work.  A reproduction's conclusions are only credible if the *orderings*
-- A-TFIM > B-PIM > baseline > S-TFIM on rendering; S-TFIM's traffic
explosion; the threshold tradeoff -- survive any reasonable setting of
those constants.  This module sweeps them and reports the design
orderings at every point; :mod:`repro.experiments.validate` checks them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.core import Design, simulate_frame
from repro.core.angle import DEFAULT_THRESHOLD
from repro.experiments.common import FigureData
from repro.experiments.validate import validate
from repro.workloads import workload_by_name


def _speedups_with_gpu(workload, scene, trace, gpu) -> Dict[Design, float]:
    results = {}
    baseline_config = dataclasses.replace(
        workload.design_config(Design.BASELINE), gpu=gpu
    )
    baseline = simulate_frame(scene, trace, baseline_config)
    for design in Design:
        config = dataclasses.replace(
            workload.design_config(
                design, angle_threshold=DEFAULT_THRESHOLD.effective_radians
            ),
            gpu=gpu,
        )
        run = simulate_frame(scene, trace, config)
        results[design] = run.frame.speedup_over(baseline.frame)
    return results


def overlap_factor(
    workload_name: str = "doom3-640x480",
    factors: Sequence[float] = (0.25, 0.55, 0.85),
) -> FigureData:
    """Design orderings across fragment-stage overlap assumptions."""
    workload = workload_by_name(workload_name)
    scene, trace = workload.trace()
    data = FigureData(
        figure="sensitivity-overlap",
        title=f"Render speedups vs overlap factor ({workload_name})",
        columns=["b_pim", "s_tfim", "a_tfim"],
        paper_reference=(
            "Robustness check: the design orderings must not depend on "
            "the fitted overlap constant."
        ),
    )
    for factor in factors:
        gpu = dataclasses.replace(
            workload.gpu_config(), overlap_factor=factor
        )
        speedups = _speedups_with_gpu(workload, scene, trace, gpu)
        data.add_row(
            f"overlap_{factor}",
            b_pim=speedups[Design.B_PIM],
            s_tfim=speedups[Design.S_TFIM],
            a_tfim=speedups[Design.A_TFIM],
        )
    return data


def shader_work(
    workload_name: str = "doom3-640x480",
    cycles: Sequence[float] = (64.0, 128.0, 256.0),
) -> FigureData:
    """Design orderings across per-fragment shader-work assumptions."""
    workload = workload_by_name(workload_name)
    scene, trace = workload.trace()
    data = FigureData(
        figure="sensitivity-shader",
        title=f"Render speedups vs shader cycles/fragment ({workload_name})",
        columns=["b_pim", "s_tfim", "a_tfim"],
        paper_reference=(
            "Robustness check: heavier shaders shrink every design's "
            "speedup (Amdahl) but must not reorder the designs."
        ),
    )
    for value in cycles:
        gpu = dataclasses.replace(
            workload.gpu_config(), shader_cycles_per_fragment=value
        )
        speedups = _speedups_with_gpu(workload, scene, trace, gpu)
        data.add_row(
            f"shader_{value:.0f}",
            b_pim=speedups[Design.B_PIM],
            s_tfim=speedups[Design.S_TFIM],
            a_tfim=speedups[Design.A_TFIM],
        )
    return data


def latency_hiding(
    workload_name: str = "doom3-640x480",
    depths: Sequence[int] = (16, 64, 256),
) -> FigureData:
    """Design orderings across latency-hiding depth assumptions."""
    workload = workload_by_name(workload_name)
    scene, trace = workload.trace()
    data = FigureData(
        figure="sensitivity-inflight",
        title=f"Render speedups vs in-flight request depth ({workload_name})",
        columns=["b_pim", "s_tfim", "a_tfim"],
        paper_reference=(
            "Robustness check: more or less latency tolerance shifts "
            "magnitudes, not the design ordering."
        ),
    )
    for depth in depths:
        gpu = dataclasses.replace(
            workload.gpu_config(), max_inflight_texture_requests=depth
        )
        speedups = _speedups_with_gpu(workload, scene, trace, gpu)
        data.add_row(
            f"depth_{depth}",
            b_pim=speedups[Design.B_PIM],
            s_tfim=speedups[Design.S_TFIM],
            a_tfim=speedups[Design.A_TFIM],
        )
    return data


if __name__ == "__main__":
    for figure in (overlap_factor(), shader_work(), latency_hiding()):
        print(figure.title)
        print(figure.format_table())
        for check in validate(figure):
            print(check)
        print()
