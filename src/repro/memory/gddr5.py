"""GDDR5 off-chip memory model (the paper's baseline memory system).

Table I: 128 GB/s off-chip bandwidth at 1.25 GHz memory frequency.  The
model is a bandwidth server for the data bus plus a bank/row DRAM device
for access latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.clock import bytes_per_cycle
from repro.units import Bytes, BytesPerCycle, Cycles, Gigahertz, GigabytesPerSecond
from repro.sim.resources import BandwidthServer
from repro.memory.dram import DramDevice, DramTiming


@dataclass(frozen=True)
class Gddr5Config:
    """Configuration of the GDDR5 memory system (Table I values)."""

    bandwidth_gb_per_s: GigabytesPerSecond = GigabytesPerSecond(128.0)
    memory_frequency_ghz: Gigahertz = Gigahertz(1.25)
    gpu_frequency_ghz: Gigahertz = Gigahertz(1.0)
    access_latency_cycles: Cycles = Cycles(120.0)
    num_channels: int = 4
    """A 128 GB/s GDDR5 subsystem is several independent 32-bit channels;
    channel-level parallelism is what lets the quoted bandwidth be
    reached under banked access streams."""
    num_banks: int = 16
    channel_interleave_bytes: Bytes = Bytes(256)
    timing: DramTiming = field(default_factory=DramTiming)

    def __post_init__(self) -> None:
        if self.bandwidth_gb_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.access_latency_cycles < 0:
            raise ValueError("latency must be non-negative")

    @property
    def bus_bytes_per_cycle(self) -> BytesPerCycle:
        return bytes_per_cycle(self.bandwidth_gb_per_s, self.gpu_frequency_ghz)


class Gddr5Memory:
    """The baseline GPU's off-chip memory.

    A read of a cache line goes to the channel of its 256-byte block
    (``channel_interleave_bytes``, round-robin over the channels) and
    occupies the data bus; it completes at the later of the bus and the
    DRAM bank timing, which lets either bandwidth or bank conflicts be
    the bottleneck.  :class:`repro.memory.replay.Gddr5Replay` serves the
    reads.
    """

    def __init__(self, config: Gddr5Config | None = None) -> None:
        self.config = config or Gddr5Config()
        self.bus = BandwidthServer(
            name="gddr5.bus",
            bytes_per_cycle=self.config.bus_bytes_per_cycle,
            latency=self.config.access_latency_cycles,
        )
        self.channels = [
            DramDevice(
                timing=self.config.timing,
                num_banks=self.config.num_banks,
                bank_interleave_bytes=self.config.channel_interleave_bytes,
                interleave_step=self.config.num_channels,
            )
            for _ in range(self.config.num_channels)
        ]
        self.reads = 0
        # Texture traffic only reads; the stat group keeps the counter.
        self.writes = 0

    @property
    def total_bytes(self) -> Bytes:
        return self.bus.total_bytes

    def stat_group(self, name: str = "gddr5") -> "StatGroup":
        """Snapshot of this memory's service counters for telemetry.

        Read by :mod:`repro.obs.snapshot` at frame drain time; building
        the group costs nothing during simulation.
        """
        from repro.sim.stats import StatGroup

        group = StatGroup(name)
        group.counter("reads").add(self.reads)
        group.counter("writes").add(self.writes)
        group.counter("bus_bytes").add(self.bus.total_bytes)
        group.counter("row_hit_rate").add(self.row_hit_rate())
        return group

    def row_hit_rate(self) -> float:
        hits = sum(
            bank.row_hits for channel in self.channels for bank in channel.banks
        )
        misses = sum(
            bank.row_misses for channel in self.channels for bank in channel.banks
        )
        total = hits + misses
        if total == 0:
            return 0.0
        return hits / total

    def reset(self) -> None:
        self.bus.reset()
        for channel in self.channels:
            channel.reset()
        self.reads = 0
        self.writes = 0
