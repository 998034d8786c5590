"""The paper's quoted numbers, as a structured single source of truth.

Every quantitative claim the paper's text makes about its figures is
recorded here once, so experiment notes, validation checks and
EXPERIMENTS.md quote identical values.  Numbers are from the paper's
abstract, introduction and section VII prose; per-bar values exist only
where the paper prints them (the S-TFIM bars above Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class PaperStat:
    """One quoted statistic: a mean and, where given, the extreme."""

    mean: float
    best: Optional[float] = None
    description: str = ""


PAPER = {
    # Fig. 2 / section II-B.
    "texture_traffic_share": PaperStat(
        mean=0.60,
        description="texture fetching share of total memory access",
    ),
    # Fig. 4 / section II-C.
    "aniso_disabled_texture_speedup": PaperStat(
        mean=1.1, best=4.2,
        description="texture filtering speedup with anisotropic disabled",
    ),
    "aniso_disabled_traffic": PaperStat(
        mean=0.66, best=0.27,
        description="texture traffic with anisotropic disabled (normalized)",
    ),
    # Fig. 5 / section III.
    "bpim_render_speedup": PaperStat(
        mean=1.27, best=1.30,
        description="B-PIM overall 3D rendering speedup",
    ),
    "bpim_texture_speedup": PaperStat(
        mean=1.07, best=1.69,
        description="B-PIM texture filtering speedup",
    ),
    # Fig. 10 / abstract.
    "atfim_texture_speedup": PaperStat(
        mean=3.97, best=6.4,
        description="A-TFIM texture filtering speedup (0.01pi threshold)",
    ),
    # Fig. 11 / abstract.
    "atfim_render_speedup": PaperStat(
        mean=1.43, best=1.65,
        description="A-TFIM overall 3D rendering speedup",
    ),
    # Fig. 12 / section VII-B.
    "stfim_traffic": PaperStat(
        mean=2.79, best=6.37,
        description="S-TFIM external texture traffic (normalized)",
    ),
    "atfim_005pi_traffic": PaperStat(
        mean=0.72, best=0.36,
        description="A-TFIM texture traffic at the 0.05pi threshold",
    ),
    # Fig. 13 / abstract & section VII-C.
    "atfim_energy": PaperStat(
        mean=0.78,
        description="A-TFIM energy (normalized to baseline)",
    ),
    "atfim_energy_vs_bpim": PaperStat(
        mean=0.92,
        description="A-TFIM energy relative to B-PIM (8% less)",
    ),
    # Fig. 14 / section VII-D.
    "threshold_speedup_strictest": PaperStat(
        mean=1.33,
        description="A-TFIM render speedup at the 0.005pi threshold",
    ),
    "threshold_speedup_loosest": PaperStat(
        mean=1.47,
        description="A-TFIM render speedup with no recalculation",
    ),
    # Section VII-E.
    "parent_buffer_kb": PaperStat(
        mean=1.41, description="Parent Texel Buffer storage"
    ),
    "consolidation_kb": PaperStat(
        mean=0.5, description="Child Texel Consolidation storage"
    ),
    "hmc_area_fraction": PaperStat(
        mean=0.0318, description="A-TFIM logic-layer area share of a DRAM die"
    ),
    "gpu_area_fraction": PaperStat(
        mean=0.0023, description="angle-tag area share of the GPU"
    ),
}

STFIM_TRAFFIC_BARS: Dict[str, float] = {
    # The values printed above Fig. 12's S-TFIM bars, in Table II order.
    "doom3-1280x1024": 5.16,
    "doom3-640x480": 4.41,
    "doom3-320x240": 2.95,
    "fear-1280x1024": 6.37,
    "fear-640x480": 4.47,
    "fear-320x240": 2.99,
    "hl2-1280x1024": 3.01,
    "hl2-640x480": 2.26,
    "riddick-640x480": 2.07,
    "wolfenstein-640x480": 4.18,
}


def stat(name: str) -> PaperStat:
    """Look up one quoted statistic by key."""
    if name not in PAPER:
        raise KeyError(f"unknown paper statistic {name!r}; known: {sorted(PAPER)}")
    return PAPER[name]
