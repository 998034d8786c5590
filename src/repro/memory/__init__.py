"""Memory substrates: GDDR5, Hybrid Memory Cube, packets, traffic accounting.

The designs in the paper are distinguished almost entirely by *where*
texture data moves and over *which* interface:

* Baseline: GPU <-> GDDR5 at 128 GB/s.
* B-PIM / S-TFIM / A-TFIM: GPU <-> one Hybrid Memory Cube: 320 GB/s
  external serial links, 512 GB/s of aggregate internal vault
  bandwidth behind the logic layer that hosts the in-memory texture
  units.

This subpackage models the memory systems as resource-occupancy servers
(see :mod:`repro.sim.resources`), defines the package formats that make
S-TFIM lose and A-TFIM win, and provides class-tagged traffic accounting
used to regenerate Fig. 2 and Fig. 12.
"""

from repro.memory.packets import PacketSpec
from repro.memory.dram import DramTiming, DramBank, DramDevice
from repro.memory.gddr5 import Gddr5Config, Gddr5Memory
from repro.memory.hmc import HmcConfig, HmcVault, HybridMemoryCube
from repro.memory.traffic import TrafficClass, TrafficMeter

__all__ = [
    "PacketSpec",
    "DramTiming",
    "DramBank",
    "DramDevice",
    "Gddr5Config",
    "Gddr5Memory",
    "HmcConfig",
    "HmcVault",
    "HybridMemoryCube",
    "TrafficClass",
    "TrafficMeter",
]
