"""Ablation studies beyond the paper's figures (DESIGN.md section 6).

* **MTU sharing** (S-TFIM): the paper mentions that sharing one MTU
  among several shader clusters saves area but "may cause resource
  contention"; we quantify it.
* **Child Texel Consolidation off** (A-TFIM): the value of merging
  duplicate child fetches.
* **Anisotropy cap sweep**: how the maximum anisotropy level changes the
  baseline/A-TFIM gap.
* **HMC bandwidth sensitivity**: A-TFIM speedup vs internal bandwidth.

Every run uses the paper's single HMC and uncompressed textures: the
paper names several cubes (section V-E) and texture compression
(section VIII) only as options no figure evaluates, so neither is
modelled.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.core import Design, simulate_frame
from repro.core.angle import DEFAULT_THRESHOLD
from repro.experiments.common import FigureData
from repro.experiments.runner import ExperimentRunner
from repro.workloads import GameWorkload, workload_by_name


def mtu_sharing(
    runner: Optional[ExperimentRunner] = None,
    workload_names: Optional[Sequence[str]] = None,
    share_ratios: Sequence[int] = (1, 2, 4),
) -> FigureData:
    """S-TFIM texture speedup as clusters share MTUs."""
    runner = runner or ExperimentRunner(workload_names)
    columns = [f"share_{ratio}" for ratio in share_ratios]
    data = FigureData(
        figure="ablation-mtu-share",
        title="S-TFIM texture speedup vs MTU sharing ratio",
        columns=columns,
        paper_reference=(
            "Section IV: sharing MTUs saves area but may cause contention; "
            "the paper evaluates private MTUs only."
        ),
    )
    for workload in runner.workloads:
        values = {}
        for ratio in share_ratios:
            run = runner.run(workload, Design.S_TFIM, mtu_share=ratio)
            values[f"share_{ratio}"] = run.frame.texture_speedup_over(
                runner.baseline(workload).frame
            )
        data.add_row(workload.name, **values)
    return data


def consolidation(
    runner: Optional[ExperimentRunner] = None,
    workload_names: Optional[Sequence[str]] = None,
) -> FigureData:
    """A-TFIM with and without Child Texel Consolidation."""
    runner = runner or ExperimentRunner(workload_names)
    data = FigureData(
        figure="ablation-consolidation",
        title="A-TFIM texture speedup with/without Child Texel Consolidation",
        columns=["with_consolidation", "without_consolidation"],
        paper_reference=(
            "Section V-D: the Child Texel Consolidation merges identical "
            "child fetches to reduce memory contention."
        ),
    )
    for workload in runner.workloads:
        with_on = runner.run(
            workload, Design.A_TFIM, DEFAULT_THRESHOLD, consolidation_enabled=True
        )
        with_off = runner.run(
            workload, Design.A_TFIM, DEFAULT_THRESHOLD, consolidation_enabled=False
        )
        baseline = runner.baseline(workload).frame
        data.add_row(
            workload.name,
            with_consolidation=with_on.frame.texture_speedup_over(baseline),
            without_consolidation=with_off.frame.texture_speedup_over(baseline),
        )
    return data


def anisotropy_cap(
    workload_name: str = "doom3-640x480",
    caps: Sequence[int] = (2, 4, 8, 16),
) -> FigureData:
    """Baseline texel volume and A-TFIM gain vs max anisotropy level."""
    base_workload = workload_by_name(workload_name)
    data = FigureData(
        figure="ablation-aniso-cap",
        title=f"A-TFIM texture speedup vs max anisotropy ({workload_name})",
        columns=["texels_per_request", "a_tfim_texture_speedup"],
        paper_reference=(
            "Section II-C: required texels grow with the anisotropy level "
            "(16x EWA needs 128 texels, 32x a bilinear fetch)."
        ),
    )
    for cap in caps:
        workload = dataclasses.replace(base_workload, max_anisotropy=cap)
        scene, trace = workload.trace()
        baseline = simulate_frame(
            scene, trace, workload.design_config(Design.BASELINE)
        )
        atfim = simulate_frame(
            scene,
            trace,
            workload.design_config(
                Design.A_TFIM,
                angle_threshold=DEFAULT_THRESHOLD.effective_radians,
            ),
        )
        texels = baseline.frame.texels_requested / max(
            1, baseline.frame.num_requests
        )
        data.add_row(
            f"aniso_{cap}x",
            texels_per_request=texels,
            a_tfim_texture_speedup=atfim.frame.texture_speedup_over(
                baseline.frame
            ),
        )
    return data


def internal_bandwidth(
    workload_name: str = "doom3-640x480",
    multipliers: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
) -> FigureData:
    """A-TFIM texture speedup vs HMC internal bandwidth."""
    workload = workload_by_name(workload_name)
    scene, trace = workload.trace()
    baseline = simulate_frame(
        scene, trace, workload.design_config(Design.BASELINE)
    )
    data = FigureData(
        figure="ablation-internal-bw",
        title=f"A-TFIM texture speedup vs HMC internal bandwidth ({workload_name})",
        columns=["a_tfim_texture_speedup"],
        paper_reference=(
            "Section III: internal bandwidth (512 GB/s) vs external "
            "(320 GB/s) is the headroom the TFIM designs exploit."
        ),
    )
    base_hmc = workload.hmc_config()
    for multiplier in multipliers:
        hmc = dataclasses.replace(
            base_hmc,
            internal_bandwidth_gb_per_s=base_hmc.internal_bandwidth_gb_per_s
            * multiplier,
            external_bandwidth_gb_per_s=min(
                base_hmc.external_bandwidth_gb_per_s,
                base_hmc.internal_bandwidth_gb_per_s * multiplier,
            ),
        )
        config = workload.design_config(
            Design.A_TFIM,
            angle_threshold=DEFAULT_THRESHOLD.effective_radians,
            hmc=hmc,
        )
        run = simulate_frame(scene, trace, config)
        data.add_row(
            f"internal_x{multiplier}",
            a_tfim_texture_speedup=run.frame.texture_speedup_over(baseline.frame),
        )
    return data


if __name__ == "__main__":
    from repro.experiments.runner import FAST_WORKLOADS

    for figure in (
        mtu_sharing(workload_names=FAST_WORKLOADS),
        consolidation(workload_names=FAST_WORKLOADS),
        anisotropy_cap(),
        internal_bandwidth(),
    ):
        print(figure.title)
        print(figure.format_table())
        print()
