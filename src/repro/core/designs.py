"""Design points and their configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.gpu.config import GPUConfig
from repro.memory.gddr5 import Gddr5Config
from repro.memory.hmc import HmcConfig
from repro.memory.packets import PacketSpec
from repro.units import BytesPerCycle, Radians


class Design(Enum):
    """The four evaluated design points (paper section VII)."""

    BASELINE = "baseline"
    B_PIM = "b-pim"
    S_TFIM = "s-tfim"
    A_TFIM = "a-tfim"

    @property
    def filters_in_memory(self) -> bool:
        return self in (Design.S_TFIM, Design.A_TFIM)


@dataclass(frozen=True)
class DesignConfig:
    """Everything one design run needs besides the workload.

    ``angle_threshold`` (radians) only matters for A-TFIM; the paper's
    default is 0.01 * pi (1.8 degrees), selected in section VII-D.
    ``aniso_enabled`` disables anisotropic filtering entirely for the
    Fig. 4 study.  ``mtu_share`` > 1 makes several clusters share one
    S-TFIM MTU (the area-saving variant the paper mentions but does not
    evaluate; our ablation does); it must divide the cluster count, so
    that every MTU serves the same number of clusters.
    """

    design: Design = Design.BASELINE
    gpu: GPUConfig = field(default_factory=GPUConfig)
    gddr5: Gddr5Config = field(default_factory=Gddr5Config)
    hmc: HmcConfig = field(default_factory=HmcConfig)
    packets: PacketSpec = field(default_factory=PacketSpec)
    angle_threshold: Radians = Radians(0.01 * 3.141592653589793)
    angle_threshold_scale: float = 1.0
    """Calibration for scaled-resolution simulation: one simulated pixel
    spans ``sim_scale`` full-resolution pixels, so the camera angle
    varies ``sim_scale`` times faster per pixel (and per cache line) than
    at the paper's resolutions.  Comparing against
    ``angle_threshold x angle_threshold_scale`` restores the paper's
    recalculation *rates*; workloads set this to their ``sim_scale``."""
    aniso_enabled: bool = True
    mtu_share: int = 1
    consolidation_enabled: bool = True
    """A-TFIM ablation switch: disable Child Texel Consolidation to
    quantify the value of merging duplicate child fetches."""

    def __post_init__(self) -> None:
        # Written so that NaN fails: the A-TFIM models would read a NaN
        # threshold in opposite ways (reuse all, recalculate all).
        if not self.angle_threshold >= 0:
            raise ValueError("angle threshold must be non-negative")
        if not 0 < self.angle_threshold_scale < math.inf:
            raise ValueError(
                "angle threshold scale must be positive and finite"
            )
        if self.mtu_share < 1:
            raise ValueError("MTU share ratio must be >= 1")
        if self.gpu.num_clusters % self.mtu_share:
            raise ValueError(
                f"MTU share ratio {self.mtu_share} must divide the "
                f"{self.gpu.num_clusters} clusters"
            )

    @property
    def effective_angle_threshold(self) -> float:
        """The threshold the caches actually compare against."""
        return self.angle_threshold * self.angle_threshold_scale

    @property
    def external_bytes_per_cycle(self) -> BytesPerCycle:
        """The GPU<->memory interface rate seen by non-texture traffic."""
        if self.design is Design.BASELINE:
            return self.gddr5.bus_bytes_per_cycle
        # Full-duplex links: writes ride tx, reads ride rx; ROP traffic is
        # write-dominated, so charge one direction's rate.
        return self.hmc.link_bytes_per_cycle
