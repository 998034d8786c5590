"""Activity-based energy model (section VI methodology).

Energy = sum over activities of (count x per-event energy), plus a static
component proportional to runtime (the paper adds ~10 % leakage on top of
dynamic power, and notes A-TFIM's energy win comes from *shorter runtime*
despite higher average power).

Per-bit figures follow the paper: HMC links 5 pJ/bit, HMC DRAM (TSV +
array) 4 pJ/bit; GDDR5 is substantially more expensive per bit (the
Micron DDR power model the paper cites lands GDDR5-class interfaces at
roughly 3-4x HMC's per-bit DRAM energy -- "HMC decreases the length of
the electrical connections", section VII-C), which we encode as a single
per-bit constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.designs import Design
from repro.gpu.pipeline import FrameResult
from repro.units import (
    BITS_PER_BYTE,
    PJ,
    Gigahertz,
    Joules,
    PicojoulesPerBit,
    PicojoulesPerByte,
    PicojoulesPerOp,
    Watts,
)


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (picojoules) and static power (watts)."""

    link_pj_per_bit: PicojoulesPerBit = PicojoulesPerBit(5.0)
    hmc_dram_pj_per_bit: PicojoulesPerBit = PicojoulesPerBit(4.0)
    gddr5_pj_per_bit: PicojoulesPerBit = PicojoulesPerBit(14.0)
    texture_alu_pj_per_op: PicojoulesPerOp = PicojoulesPerOp(12.0)
    shader_pj_per_fragment: float = 220.0
    vertex_pj_per_vertex: float = 120.0
    l1_pj_per_access: float = 8.0
    l2_pj_per_access: float = 20.0
    rop_pj_per_byte: PicojoulesPerByte = PicojoulesPerByte(1.5)
    gpu_static_watts: Watts = Watts(18.0)
    hmc_logic_static_watts: Watts = Watts(2.5)
    leakage_fraction: float = 0.10
    gpu_frequency_ghz: Gigahertz = Gigahertz(1.0)

    def __post_init__(self) -> None:
        for name in (
            "link_pj_per_bit",
            "hmc_dram_pj_per_bit",
            "gddr5_pj_per_bit",
            "texture_alu_pj_per_op",
            "shader_pj_per_fragment",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.leakage_fraction <= 1:
            raise ValueError("leakage fraction must be in [0, 1]")


@dataclass
class EnergyBreakdown:
    """Energy per component, in joules."""

    shader: Joules = Joules(0.0)
    texture_units_gpu: Joules = Joules(0.0)
    texture_units_memory: Joules = Joules(0.0)
    caches: Joules = Joules(0.0)
    memory_interface: Joules = Joules(0.0)
    dram: Joules = Joules(0.0)
    rop: Joules = Joules(0.0)
    static: Joules = Joules(0.0)

    @property
    def total(self) -> Joules:
        return Joules(
            self.shader
            + self.texture_units_gpu
            + self.texture_units_memory
            + self.caches
            + self.memory_interface
            + self.dram
            + self.rop
            + self.static
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "shader": self.shader,
            "texture_units_gpu": self.texture_units_gpu,
            "texture_units_memory": self.texture_units_memory,
            "caches": self.caches,
            "memory_interface": self.memory_interface,
            "dram": self.dram,
            "rop": self.rop,
            "static": self.static,
            "total": self.total,
        }


class EnergyModel:
    """Computes a frame's energy from its simulation result."""

    def __init__(self, params: EnergyParams | None = None) -> None:
        self.params = params or EnergyParams()

    def frame_energy(self, design: Design, frame: FrameResult) -> EnergyBreakdown:
        """Energy of one simulated frame under one design."""
        params = self.params
        activity = frame.path_activity
        traffic = frame.traffic
        breakdown = EnergyBreakdown()

        breakdown.shader = (
            frame.num_fragments * params.shader_pj_per_fragment
            + frame.geometry.vertices * params.vertex_pj_per_vertex
        ) * PJ

        gpu_tex_ops = activity.gpu_texture.address_ops + activity.gpu_texture.filter_ops
        mem_tex_ops = (
            activity.memory_texture.address_ops + activity.memory_texture.filter_ops
        )
        breakdown.texture_units_gpu = gpu_tex_ops * params.texture_alu_pj_per_op * PJ
        breakdown.texture_units_memory = mem_tex_ops * params.texture_alu_pj_per_op * PJ

        breakdown.caches = (
            activity.l1_accesses * params.l1_pj_per_access
            + activity.l2_accesses * params.l2_pj_per_access
        ) * PJ

        external_bits = traffic.external_total * BITS_PER_BYTE
        internal_bits = traffic.internal_total * BITS_PER_BYTE
        if design is Design.BASELINE:
            breakdown.memory_interface = 0.0
            breakdown.dram = external_bits * params.gddr5_pj_per_bit * PJ
        else:
            breakdown.memory_interface = external_bits * params.link_pj_per_bit * PJ
            dram_bits = external_bits + internal_bits
            breakdown.dram = dram_bits * params.hmc_dram_pj_per_bit * PJ

        breakdown.rop = frame.rop.total_bytes * params.rop_pj_per_byte * PJ

        seconds = frame.frame_cycles / (params.gpu_frequency_ghz * 1e9)
        static_watts = params.gpu_static_watts
        if design.filters_in_memory:
            static_watts += params.hmc_logic_static_watts
        breakdown.static = static_watts * seconds

        dynamic = breakdown.total - breakdown.static
        breakdown.static += dynamic * params.leakage_fraction
        return breakdown
