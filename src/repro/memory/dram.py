"""Bank/row DRAM model shared by the GDDR5 channel and the HMC vaults.

Both memory systems are, at the bottom, arrays of DRAM banks with
row-buffer locality.  Two modelling points matter for fidelity:

* **Occupancy vs. latency.**  A column access to an open row occupies the
  bank only for the data burst (~tCCD); the CAS latency is pipelined and
  only delays when the data arrives, not when the bank is next free.  A
  row-buffer miss additionally occupies the bank for precharge +
  activate.  Conflating the two (charging full access latency as
  occupancy) understates bank bandwidth by 5-10x.

* **Address interleaving.**  Banks interleave at a small block
  granularity (256 B here) so that spatially hot regions spread across
  banks, while each bank's row buffer covers that bank's blocks within a
  contiguous span -- the standard ``row : column-hi : bank : column-lo``
  mapping.  Line-granular interleaving would make every consecutive line
  a row miss; row-granular interleaving would serialize hot 2 KB regions
  in one bank.
"""

from __future__ import annotations

from repro.units import Bytes, Cycles
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class DramTiming:
    """Core DRAM timing parameters, expressed in GPU cycles.

    Defaults approximate GDDR5-class timings at a 1 GHz reference clock
    (tRCD ~ 12 ns, CL ~ 12 ns, tRP ~ 12 ns, ~4 ns burst occupancy per
    column access).
    """

    row_activate_cycles: Cycles = Cycles(12.0)
    column_access_cycles: Cycles = Cycles(12.0)
    precharge_cycles: Cycles = Cycles(12.0)
    burst_cycles: Cycles = Cycles(4.0)
    row_bytes: Bytes = Bytes(2048)

    def __post_init__(self) -> None:
        if self.row_bytes <= 0:
            raise ValueError("row size must be positive")
        for name in (
            "row_activate_cycles",
            "column_access_cycles",
            "precharge_cycles",
            "burst_cycles",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def row_miss_occupancy(self) -> float:
        """Bank busy time for an access that precharges and activates."""
        return self.precharge_cycles + self.row_activate_cycles + self.burst_cycles

    @property
    def row_hit_occupancy(self) -> float:
        """Bank busy time for an access hitting the open row buffer."""
        return self.burst_cycles


@dataclass
class DramBank:
    """One DRAM bank with an open-row buffer.

    The bank tracks which row is open and when it next becomes available.
    An access starts when both it and the bank are ready, occupies the
    bank for a row hit's or a row miss's occupancy (opening its row), and
    its data is ready one pipelined CAS latency after that.
    """

    timing: DramTiming
    open_row: Optional[int] = None
    _next_free: float = field(default=0.0, repr=False)
    row_hits: int = field(default=0, repr=False)
    row_misses: int = field(default=0, repr=False)
    busy_cycles: Cycles = field(default=Cycles(0.0), repr=False)

    @property
    def next_free(self) -> float:
        return self._next_free

    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        if total == 0:
            return 0.0
        return self.row_hits / total

    def reset(self) -> None:
        self.open_row = None
        self._next_free = 0.0
        self.row_hits = 0
        self.row_misses = 0
        self.busy_cycles = 0.0


@dataclass
class DramDevice:
    """A collection of banks behind one channel/vault controller.

    ``interleave_step`` accounts for devices that share one global block
    stream: the HMC stripes 256 B blocks across 32 vaults first, so each
    vault's device sees every 32nd block and must rotate its own banks at
    that coarser stride (``interleave_step=32``); a single GDDR5 channel
    uses step 1.

    Blocks rotate across banks; a bank's row buffer covers its blocks
    within a span of ``interleave x step x banks x blocks_per_row``
    bytes, so streaming sweeps hit open rows while hot small regions
    still spread over all banks.  :class:`repro.memory.replay.DramReplay`
    serves accesses on the banks of one or more devices.
    """

    timing: DramTiming
    num_banks: int = 16
    bank_interleave_bytes: Bytes = Bytes(256)
    interleave_step: int = 1
    banks: List[DramBank] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("bank count must be positive")
        if self.bank_interleave_bytes <= 0:
            raise ValueError("interleave granularity must be positive")
        if self.interleave_step <= 0:
            raise ValueError("interleave step must be positive")
        if not self.banks:
            self.banks = [DramBank(self.timing) for _ in range(self.num_banks)]

    def row_hit_rate(self) -> float:
        hits = sum(bank.row_hits for bank in self.banks)
        misses = sum(bank.row_misses for bank in self.banks)
        total = hits + misses
        if total == 0:
            return 0.0
        return hits / total

    @property
    def busy_cycles(self) -> Cycles:
        return sum(bank.busy_cycles for bank in self.banks)

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
