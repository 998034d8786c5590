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

from typing import Optional, Sequence

from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD
from repro.experiments.common import FigureData
from repro.experiments.runner import ExperimentRunner


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


ANISOTROPY_CAPS = (2, 4, 8, 16)
"""The anisotropy caps :func:`anisotropy_cap` sweeps."""

INTERNAL_BANDWIDTH_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
"""The HMC internal-bandwidth multipliers :func:`internal_bandwidth`
sweeps."""


def anisotropy_cap(
    runner: Optional[ExperimentRunner] = None,
    workload_names: Optional[Sequence[str]] = None,
    caps: Sequence[int] = ANISOTROPY_CAPS,
) -> FigureData:
    """Baseline texel volume and A-TFIM gain vs max anisotropy level, on
    the runner's first workload."""
    runner = runner or ExperimentRunner(workload_names)
    workload = runner.workloads[0]
    data = FigureData(
        figure="ablation-aniso-cap",
        title=f"A-TFIM texture speedup vs max anisotropy ({workload.name})",
        columns=["texels_per_request", "a_tfim_texture_speedup"],
        paper_reference=(
            "Section II-C: required texels grow with the anisotropy level "
            "(16x EWA needs 128 texels, 32x a bilinear fetch)."
        ),
    )
    for cap in caps:
        baseline = runner.run(
            workload, Design.BASELINE, max_anisotropy=cap
        ).frame
        atfim = runner.run(workload, Design.A_TFIM, max_anisotropy=cap).frame
        data.add_row(
            f"aniso_{cap}x",
            texels_per_request=(
                baseline.texels_requested / max(1, baseline.num_requests)
            ),
            a_tfim_texture_speedup=atfim.texture_speedup_over(baseline),
        )
    return data


def internal_bandwidth(
    runner: Optional[ExperimentRunner] = None,
    workload_names: Optional[Sequence[str]] = None,
    multipliers: Sequence[float] = INTERNAL_BANDWIDTH_MULTIPLIERS,
) -> FigureData:
    """A-TFIM texture speedup vs HMC internal bandwidth, on the runner's
    first workload; the external links are clamped to the internal
    bandwidth."""
    runner = runner or ExperimentRunner(workload_names)
    workload = runner.workloads[0]
    baseline = runner.baseline(workload).frame
    data = FigureData(
        figure="ablation-internal-bw",
        title=f"A-TFIM texture speedup vs HMC internal bandwidth ({workload.name})",
        columns=["a_tfim_texture_speedup"],
        paper_reference=(
            "Section III: internal bandwidth (512 GB/s) vs external "
            "(320 GB/s) is the headroom the TFIM designs exploit."
        ),
    )
    for multiplier in multipliers:
        run = runner.run(
            workload, Design.A_TFIM, internal_bandwidth_multiplier=multiplier
        )
        data.add_row(
            f"internal_x{multiplier}",
            a_tfim_texture_speedup=run.frame.texture_speedup_over(baseline),
        )
    return data


if __name__ == "__main__":
    from repro.experiments.runner import FAST_WORKLOADS

    fast = ExperimentRunner(FAST_WORKLOADS)
    for study in (mtu_sharing, consolidation, anisotropy_cap, internal_bandwidth):
        figure = study(fast)
        print(figure.title)
        print(figure.format_table())
        print()
