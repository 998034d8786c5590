"""Section VII-E design-overhead analysis, reproduced as arithmetic.

The paper sizes A-TFIM's added structures with CACTI/McPAT at 28 nm:

* HMC side: a 256-entry Parent Texel Buffer (45 bits per entry =>
  1.41 KB), a 256-entry Child Texel Consolidation buffer (0.5 KB), and
  two 16-wide FP vector ALU arrays; together 6.09 mm^2 of logic plus
  1.12 mm^2 of storage, 3.18 % of an 8 Gb DRAM die (~226.1 mm^2).
* GPU side: 7 extra bits per texture cache line for the camera angle --
  0.21 KB per 16 KB L1 and 1.75 KB per 128 KB L2, 4.2 KB over 16
  clusters, 0.31 mm^2 (0.23 % of a 136.7 mm^2 GPU).

This module recomputes every number from its inputs so that the tests
can assert the paper's arithmetic (and so changed configurations produce
honest overheads).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.texture.cache import CacheConfig
from repro.texture.lod import ANGLE_BITS
from repro.units import BITS_PER_BYTE, Bits

KB = 1024.0


@dataclass(frozen=True)
class OverheadParams:
    """Inputs to the section VII-E arithmetic (paper values as defaults)."""

    parent_buffer_entries: int = 256
    parent_id_bits: Bits = Bits(8)
    parent_value_bits: Bits = Bits(32)
    parent_done_bits: Bits = Bits(1)
    parent_count_bits: Bits = Bits(4)
    consolidation_entries: int = 256
    consolidation_entry_bits: Bits = Bits(16)  # child-parent pair ID
    logic_area_mm2: float = 6.09
    storage_area_mm2: float = 1.12
    dram_die_area_mm2: float = 226.1
    gpu_area_mm2: float = 136.7
    angle_area_mm2: float = 0.31
    num_clusters: int = 16

    @property
    def parent_entry_bits(self) -> Bits:
        """45 bits: ID + value + done flag + unfetched-child counter."""
        return (
            self.parent_id_bits
            + self.parent_value_bits
            + self.parent_done_bits
            + self.parent_count_bits
        )


@dataclass(frozen=True)
class AtfimOverhead:
    """Derived overhead figures."""

    parent_buffer_kb: float
    consolidation_kb: float
    hmc_storage_kb: float
    hmc_area_mm2: float
    hmc_area_fraction: float
    l1_angle_kb: float
    l2_angle_kb: float
    gpu_angle_kb_total: float
    gpu_area_fraction: float


def _angle_kb(cache: CacheConfig) -> float:
    """Extra angle-tag storage for one cache, in KB: one
    :data:`~repro.texture.lod.ANGLE_BITS` tag per line."""
    return cache.num_lines * ANGLE_BITS / BITS_PER_BYTE / KB


def compute_overhead(
    params: OverheadParams | None = None,
    l1: CacheConfig | None = None,
    l2: CacheConfig | None = None,
) -> AtfimOverhead:
    """Recompute the section VII-E overhead numbers."""
    params = params or OverheadParams()
    l1 = l1 or CacheConfig(size_bytes=16 * 1024)
    l2 = l2 or CacheConfig(size_bytes=128 * 1024)

    parent_buffer_kb = (
        params.parent_buffer_entries * params.parent_entry_bits / BITS_PER_BYTE / KB
    )
    consolidation_kb = (
        params.consolidation_entries
        * params.consolidation_entry_bits
        / BITS_PER_BYTE
        / KB
    )
    hmc_area = params.logic_area_mm2 + params.storage_area_mm2

    l1_angle = _angle_kb(l1)
    l2_angle = _angle_kb(l2)
    # One L1 per cluster plus the shared L2.
    gpu_total = l1_angle * params.num_clusters + l2_angle

    return AtfimOverhead(
        parent_buffer_kb=parent_buffer_kb,
        consolidation_kb=consolidation_kb,
        hmc_storage_kb=parent_buffer_kb + consolidation_kb,
        hmc_area_mm2=hmc_area,
        hmc_area_fraction=hmc_area / params.dram_die_area_mm2,
        l1_angle_kb=l1_angle,
        l2_angle_kb=l2_angle,
        gpu_angle_kb_total=gpu_total,
        gpu_area_fraction=params.angle_area_mm2 / params.gpu_area_mm2,
    )
