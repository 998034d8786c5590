"""Hybrid Memory Cube model: serial links, logic-layer switch, vaults.

Table I / HMC 2.0 figures used by the paper:

* external: 320 GB/s peak bandwidth over full-duplex high-speed serial
  links between the host GPU and the cube;
* internal: 512 GB/s aggregate through 32 vaults (8 banks each) reached
  over TSVs with ~1 cycle latency (Chen et al., CACTI-3DD);
* the logic layer routes memory accesses to vault controllers and, in the
  TFIM designs, hosts the in-memory texture-filtering units.

The asymmetry external << internal is the entire reason A-TFIM works: the
bandwidth-hungry anisotropic child-texel fetches are served by the vaults
and never cross the links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.sim.clock import bytes_per_cycle
from repro.sim.resources import BandwidthServer
from repro.memory.dram import DramDevice, DramTiming
from repro.units import Bytes, BytesPerCycle, Cycles, Gigahertz, GigabytesPerSecond


@dataclass(frozen=True)
class HmcConfig:
    """HMC configuration (Table I and HMC 2.0 specification values)."""

    external_bandwidth_gb_per_s: GigabytesPerSecond = GigabytesPerSecond(320.0)
    internal_bandwidth_gb_per_s: GigabytesPerSecond = GigabytesPerSecond(512.0)
    num_vaults: int = 32
    banks_per_vault: int = 8
    gpu_frequency_ghz: Gigahertz = Gigahertz(1.0)
    memory_frequency_ghz: Gigahertz = Gigahertz(1.25)
    link_latency_cycles: Cycles = Cycles(32.0)
    tsv_latency_cycles: Cycles = Cycles(1.0)
    vault_access_latency_cycles: Cycles = Cycles(40.0)
    timing: DramTiming = field(default_factory=DramTiming)

    def __post_init__(self) -> None:
        if self.external_bandwidth_gb_per_s <= 0:
            raise ValueError("external bandwidth must be positive")
        if self.internal_bandwidth_gb_per_s <= 0:
            raise ValueError("internal bandwidth must be positive")
        if self.internal_bandwidth_gb_per_s < self.external_bandwidth_gb_per_s:
            raise ValueError(
                "HMC internal bandwidth must be >= external bandwidth; "
                "the asymmetry is the premise of the TFIM designs"
            )
        if self.num_vaults <= 0 or self.banks_per_vault <= 0:
            raise ValueError("vault/bank counts must be positive")

    @property
    def link_bytes_per_cycle(self) -> BytesPerCycle:
        """Per-direction external link rate in bytes per GPU cycle.

        The paper compares "320 GB/s of peak external memory bandwidth"
        against GDDR5's 128 GB/s; we follow that comparison and provision
        each direction of the full-duplex link set at the quoted rate
        (the links are independent in each direction, so reads and writes
        do not contend)."""
        return bytes_per_cycle(
            self.external_bandwidth_gb_per_s, self.gpu_frequency_ghz
        )

    @property
    def vault_bytes_per_cycle(self) -> BytesPerCycle:
        """Per-vault internal rate in bytes per GPU cycle."""
        return bytes_per_cycle(
            self.internal_bandwidth_gb_per_s, self.gpu_frequency_ghz
        ) / self.num_vaults


VAULT_BLOCK_BYTES = 256
"""Vault interleave granularity."""


class HmcVault:
    """One vault: a controller, a TSV column and a stack of DRAM banks.

    An access reads its bank and occupies the TSV column at once; its
    data is ready the vault access latency after the later of the two.
    """

    def __init__(self, index: int, config: HmcConfig) -> None:
        self.index = index
        self.config = config
        self.tsv = BandwidthServer(
            name=f"hmc.vault{index}.tsv",
            bytes_per_cycle=config.vault_bytes_per_cycle,
            latency=config.tsv_latency_cycles,
        )
        self.device = DramDevice(
            timing=config.timing,
            num_banks=config.banks_per_vault,
            bank_interleave_bytes=VAULT_BLOCK_BYTES,
            interleave_step=config.num_vaults,
        )
        self.accesses = 0

    @property
    def total_bytes(self) -> Bytes:
        return self.tsv.total_bytes

    def reset(self) -> None:
        self.tsv.reset()
        self.device.reset()
        self.accesses = 0


class HybridMemoryCube:
    """The full cube: transmit/receive links, switch, and vaults.

    Each direction of the full-duplex external serial link set is one
    bandwidth server.  Two access paths exist:

    * an *external read* -- the host GPU reaches DRAM over the serial
      links: the request package crosses the transmit link, the vault
      serves it, and the response crosses the receive link (what B-PIM
      uses for everything);
    * an *internal read* -- logic-layer units (MTUs, the A-TFIM texel
      pipeline) reach DRAM directly through the switch and TSVs, never
      touching the links.

    Vaults interleave at 256-byte block granularity
    (:data:`VAULT_BLOCK_BYTES`): small-block striping spreads spatially
    hot texture regions over all vaults (the property that realises the
    quoted internal bandwidth), and each vault's own bank mapping
    accounts for the striding via ``interleave_step`` (see
    :class:`repro.memory.dram.DramDevice`).
    :class:`repro.memory.replay.HmcReplay` serves both paths and the
    offloading designs' packages over each link.
    """

    def __init__(self, config: HmcConfig | None = None) -> None:
        self.config = config or HmcConfig()
        link = dict(bytes_per_cycle=self.config.link_bytes_per_cycle,
                    latency=self.config.link_latency_cycles)
        self.tx_link = BandwidthServer("hmc.link.tx", **link)  # GPU -> cube
        self.rx_link = BandwidthServer("hmc.link.rx", **link)  # cube -> GPU
        self.vaults: List[HmcVault] = [
            HmcVault(index, self.config) for index in range(self.config.num_vaults)
        ]
        self.external_reads = 0
        # Texture traffic only reads; the stat group keeps the counter.
        self.external_writes = 0
        self.internal_reads = 0

    @property
    def external_bytes(self) -> Bytes:
        return self.tx_link.total_bytes + self.rx_link.total_bytes

    @property
    def internal_bytes(self) -> Bytes:
        return sum(vault.total_bytes for vault in self.vaults)

    def stat_group(self, name: str = "hmc") -> "StatGroup":
        """Snapshot of the cube's service-loop counters for telemetry.

        The per-vault access distribution goes through an accumulator so
        reports see load balance (min/mean/max accesses per vault), the
        property that realises the quoted internal bandwidth.  Read at
        frame drain time by :mod:`repro.obs.snapshot`.
        """
        from repro.sim.stats import StatGroup

        group = StatGroup(name)
        group.counter("external_reads").add(self.external_reads)
        group.counter("external_writes").add(self.external_writes)
        group.counter("internal_reads").add(self.internal_reads)
        group.counter("link_tx_bytes").add(self.tx_link.total_bytes)
        group.counter("link_rx_bytes").add(self.rx_link.total_bytes)
        group.counter("internal_bytes").add(self.internal_bytes)
        balance = group.accumulator("vault_accesses")
        for vault in self.vaults:
            balance.observe(float(vault.accesses))
        return group

    def reset(self) -> None:
        self.tx_link.reset()
        self.rx_link.reset()
        for vault in self.vaults:
            vault.reset()
        self.external_reads = 0
        self.external_writes = 0
        self.internal_reads = 0
