"""Section VII-E: A-TFIM design overhead, reproduced as a table."""

from __future__ import annotations

from repro.energy.overhead import compute_overhead
from repro.experiments.common import FigureData


def run() -> FigureData:
    overhead = compute_overhead()
    data = FigureData(
        figure="sec7e",
        title="A-TFIM design overhead (section VII-E arithmetic)",
        columns=["value"],
        paper_reference=(
            "Parent Texel Buffer 1.41KB; Child Texel Consolidation 0.5KB; "
            "HMC logic-layer overhead 3.18% of an 8Gb DRAM die; GPU angle "
            "bits 4.2KB total, 0.23% of GPU area."
        ),
    )
    data.add_row("parent_buffer_kb", value=overhead.parent_buffer_kb)
    data.add_row("consolidation_kb", value=overhead.consolidation_kb)
    data.add_row("hmc_storage_kb", value=overhead.hmc_storage_kb)
    data.add_row("hmc_area_mm2", value=overhead.hmc_area_mm2)
    data.add_row("hmc_area_fraction", value=overhead.hmc_area_fraction)
    data.add_row("l1_angle_kb", value=overhead.l1_angle_kb)
    data.add_row("l2_angle_kb", value=overhead.l2_angle_kb)
    data.add_row("gpu_angle_kb_total", value=overhead.gpu_angle_kb_total)
    data.add_row("gpu_area_fraction", value=overhead.gpu_area_fraction)
    return data


if __name__ == "__main__":
    print(run().format_table(precision=4))
