"""The paper's contribution: PIM-enabled texture filtering designs.

Four design points, matching the paper's evaluation (section VII):

* :data:`Design.BASELINE` -- GPU texture filtering, GDDR5 memory.
* :data:`Design.B_PIM` -- GPU texture filtering, HMC replacing GDDR5
  (section III).
* :data:`Design.S_TFIM` -- all texture units moved into the HMC logic
  layer as Memory Texture Units (section IV).
* :data:`Design.A_TFIM` -- anisotropic filtering only, moved into the
  HMC and reordered to run first, with camera-angle-threshold reuse of
  the approximated parent texels in the GPU texture caches (section V).

The public entry point is :func:`repro.core.frontend.simulate_frame`,
which combines a workload's fragment trace with a design's texture path
and the GPU pipeline model.
"""

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame, ExpandedRequest, RequestExpander
from repro.core.frontend import (
    DesignRun,
    SequenceResult,
    simulate_frame,
    simulate_sequence,
)
from repro.core.angle import AngleThreshold, DEFAULT_THRESHOLD, THRESHOLD_SWEEP

__all__ = [
    "Design",
    "DesignConfig",
    "RequestExpander",
    "ExpandedRequest",
    "ExpandedFrame",
    "simulate_frame",
    "simulate_sequence",
    "DesignRun",
    "SequenceResult",
    "AngleThreshold",
    "DEFAULT_THRESHOLD",
    "THRESHOLD_SWEEP",
]
