"""Tables I and II: simulator configuration and benchmark registry."""

from __future__ import annotations

from typing import List

from repro.gpu.config import ATFIM_MEMORY_UNIT, GPUConfig, MTU_TEXTURE_UNIT
from repro.memory.gddr5 import Gddr5Config
from repro.memory.hmc import HmcConfig
from repro.workloads import WORKLOADS


def table1_rows() -> List[tuple[str, str]]:
    """Table I as (parameter, value) pairs from the live defaults."""
    gpu = GPUConfig()
    gddr5 = Gddr5Config()
    hmc = HmcConfig()
    rows = [
        ("Number of cluster", str(gpu.num_clusters)),
        ("Unified shader per cluster", str(gpu.shaders_per_cluster)),
        ("GPU frequency", f"{gpu.frequency_ghz} GHz"),
        ("Tile size", f"{gpu.tile_size}x{gpu.tile_size}"),
        ("Number of GPU texture units (baseline/A-TFIM)", str(gpu.num_texture_units)),
        ("Number of GPU texture units (S-TFIM)", "0"),
        (
            "Texture unit configuration",
            f"{gpu.texture_unit.address_alus} address ALUs, "
            f"{gpu.texture_unit.filter_alus} filtering ALUs",
        ),
        ("Texture L1 cache", f"{gpu.l1_cache.size_bytes // 1024}KB, "
                             f"{gpu.l1_cache.associativity}-way"),
        ("Texture L2 cache", f"{gpu.l2_cache.size_bytes // 1024}KB, "
                             f"{gpu.l2_cache.associativity}-way"),
        ("Off-chip bandwidth (GDDR5)", f"{gddr5.bandwidth_gb_per_s:.0f} GB/s"),
        ("Off-chip bandwidth (HMC)", f"{hmc.external_bandwidth_gb_per_s:.0f} GB/s"),
        ("HMC internal bandwidth", f"{hmc.internal_bandwidth_gb_per_s:.0f} GB/s"),
        ("Memory frequency", f"{gddr5.memory_frequency_ghz} GHz"),
        (
            "HMC configuration",
            f"{hmc.num_vaults} vaults, {hmc.banks_per_vault} banks/vault, "
            f"{hmc.tsv_latency_cycles:.0f} cycle TSV latency",
        ),
        (
            "S-TFIM MTU configuration",
            f"{MTU_TEXTURE_UNIT.address_alus} address ALUs, "
            f"{MTU_TEXTURE_UNIT.filter_alus} filtering ALUs",
        ),
        (
            "A-TFIM Texel Generator / Combination Unit",
            f"{ATFIM_MEMORY_UNIT.address_alus} address ALUs / "
            f"{ATFIM_MEMORY_UNIT.filter_alus} filtering ALUs",
        ),
    ]
    return rows


def table2_rows() -> List[tuple[str, str, str, str]]:
    """Table II: (name, resolution, library, engine) per workload."""
    return [
        (
            workload.game,
            workload.resolution_label,
            workload.library,
            workload.engine,
        )
        for workload in WORKLOADS
    ]


def format_table1() -> str:
    rows = table1_rows()
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def format_table2() -> str:
    rows = table2_rows()
    header = ("game", "resolution", "library", "engine")
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(4)]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(4))]
    for row in rows:
        lines.append("  ".join(str(row[i]).ljust(widths[i]) for i in range(4)))
    return "\n".join(lines)


if __name__ == "__main__":
    print("Table I\n" + format_table1())
    print("\nTable II\n" + format_table2())
