"""Texture-unit resource bundle and activity counters.

A texture unit (GPU-side, or an S-TFIM MTU, or the A-TFIM in-memory
pipeline) is, for timing purposes, two pipelined ALU arrays:

* the *address generator*, producing one texel address per address ALU
  per cycle;
* the *filter array*, consuming one texel per filter ALU per cycle while
  accumulating the weighted sums of Eq. (1).

Activity counters feed the energy model: each processed texel is one
address op and one filter op; cache and memory activity is counted by the
caches/servers themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.config import TextureUnitConfig
from repro.sim.resources import ThroughputUnit
from repro.units import Ops, OpsPerCycle


@dataclass
class TextureUnitActivity:
    """Energy-relevant event counts for one texture unit."""

    address_ops: Ops = Ops(0)
    filter_ops: Ops = Ops(0)
    requests: int = 0

    def merge(self, other: "TextureUnitActivity") -> None:
        self.address_ops = Ops(self.address_ops + other.address_ops)
        self.filter_ops = Ops(self.filter_ops + other.filter_ops)
        self.requests += other.requests


class TextureUnit:
    """The two ALU arrays of one texture unit as throughput resources.

    :class:`repro.core.paths.UnitReplayState` serves requests on the
    stages and counts their activity.
    """

    def __init__(self, name: str, config: TextureUnitConfig) -> None:
        self.name = name
        self.config = config
        self.address_stage = ThroughputUnit(
            name=f"{name}.addr",
            ops_per_cycle=OpsPerCycle(float(config.address_alus)),
            pipeline_depth=config.pipeline_depth,
        )
        self.filter_stage = ThroughputUnit(
            name=f"{name}.filter",
            ops_per_cycle=OpsPerCycle(float(config.filter_alus)),
            pipeline_depth=config.pipeline_depth,
        )
        self.activity = TextureUnitActivity()

    def reset(self) -> None:
        self.address_stage.reset()
        self.filter_stage.reset()
        self.activity = TextureUnitActivity()
