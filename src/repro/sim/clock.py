"""Bandwidth-unit conversion.

All performance models in :mod:`repro` express time in *GPU cycles* (the
host GPU runs at 1 GHz in the paper's Table I, so one cycle is one
nanosecond under the default configuration).  There is no global clock
object: each resource keeps its own next-free cycle
(:mod:`repro.sim.resources`).  The paper quotes bandwidths in GB/s;
:func:`bytes_per_cycle` converts them into the per-cycle rates the
resource servers use.
"""

from __future__ import annotations

from repro.units import BytesPerCycle, Gigahertz, GigabytesPerSecond


def bytes_per_cycle(
    bandwidth_gb_per_s: GigabytesPerSecond, frequency_ghz: Gigahertz = Gigahertz(1.0)
) -> BytesPerCycle:
    """Convert a bandwidth in GB/s into bytes per clock cycle.

    The paper quotes bandwidths in GB/s (128 GB/s GDDR5, 320 GB/s HMC
    external, 512 GB/s HMC internal); resource servers work in bytes per
    GPU cycle. At 1 GHz, 128 GB/s is exactly 128 bytes per cycle.
    """
    if bandwidth_gb_per_s < 0:
        raise ValueError("bandwidth must be non-negative")
    if frequency_ghz <= 0:
        raise ValueError("frequency must be positive")
    return BytesPerCycle(bandwidth_gb_per_s / frequency_ghz)
