"""Camera-angle thresholds: the paper's performance/quality knob.

Section V-C: when a texture unit hits in the cache on a parent texel, it
compares the requesting pixel's camera angle with the angle stored in the
cache line; if they differ by more than the threshold, the parent texel
is recalculated in the HMC.  Section VII-D sweeps the threshold from
0.005*pi (0.9 degrees, strictest evaluated) to "no recalculation" and
selects 0.01*pi (1.8 degrees) as the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.units import Degrees, Radians


@dataclass(frozen=True)
class AngleThreshold:
    """A named threshold configuration from the paper's sweep."""

    label: str
    radians: Optional[Radians]
    """None means "no recalculation": any cached parent texel is reused
    regardless of angle (the least strict end of the sweep)."""

    @property
    def degrees(self) -> Optional[Degrees]:
        if self.radians is None:
            return None
        return Degrees(math.degrees(self.radians))

    @property
    def effective_radians(self) -> Radians:
        """The threshold as a number (no-recalculation => pi, more steps
        than any two angle tags differ by)."""
        if self.radians is None:
            return Radians(math.pi)
        return self.radians

    def __str__(self) -> str:
        return self.label


THRESHOLD_0005PI = AngleThreshold(label="A-TFIM-0005pi", radians=Radians(0.005 * math.pi))
THRESHOLD_001PI = AngleThreshold(label="A-TFIM-001pi", radians=Radians(0.01 * math.pi))
THRESHOLD_005PI = AngleThreshold(label="A-TFIM-005pi", radians=Radians(0.05 * math.pi))
THRESHOLD_01PI = AngleThreshold(label="A-TFIM-01pi", radians=Radians(0.1 * math.pi))
THRESHOLD_NO_RECALC = AngleThreshold(label="A-TFIM-no", radians=None)

DEFAULT_THRESHOLD = THRESHOLD_001PI
"""1.8 degrees (0.01*pi): the paper's selected default (section VII-D)."""

THRESHOLD_SWEEP: List[AngleThreshold] = [
    THRESHOLD_0005PI,
    THRESHOLD_001PI,
    THRESHOLD_005PI,
    THRESHOLD_01PI,
    THRESHOLD_NO_RECALC,
]
"""The Fig. 14/15/16 sweep, strictest first."""
