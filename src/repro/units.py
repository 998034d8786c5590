"""Unit-tagged scalar aliases and the shared unit constants.

The simulator's arithmetic mixes heterogeneous physical quantities --
GPU cycles, transferred bytes, bytes-per-cycle rates, picojoules,
camera angles in radians.  The ``NewType`` aliases below (:data:`Cycles`,
:data:`Bytes`, ...) name the unit of each parameter, field and return
value throughout ``sim/``, ``memory/``, ``core/``, ``energy/`` and
``texture/``.  They are identity functions at runtime (zero cost);
type checkers treat them as distinct types.

:data:`BITS_PER_BYTE` and :data:`PJ` are the shared conversion
constants (bits per byte, joules per picojoule).
"""

from __future__ import annotations

from typing import NewType

# ---------------------------------------------------------------------------
# Annotation aliases.  All are identity wrappers over plain numbers.
# ---------------------------------------------------------------------------

Cycles = NewType("Cycles", float)
"""Time in GPU reference-clock cycles (1 GHz in Table I => 1 ns each)."""

Bytes = NewType("Bytes", float)
"""A byte count (transfer sizes, capacities, traffic totals)."""

Bits = NewType("Bits", float)
"""A bit count (per-bit energy bookkeeping, field widths)."""

BytesPerCycle = NewType("BytesPerCycle", float)
"""A transfer rate in bytes per GPU cycle (bandwidth-server rates)."""

Ops = NewType("Ops", float)
"""A count of ALU operations (address/filter ops, queue entries)."""

OpsPerCycle = NewType("OpsPerCycle", float)
"""An issue rate in operations per GPU cycle."""

Joules = NewType("Joules", float)
"""Energy in joules (frame-level energy breakdowns)."""

PicojoulesPerBit = NewType("PicojoulesPerBit", float)
"""Per-bit transfer energy (HMC links 5 pJ/bit, DRAM 4 pJ/bit, ...)."""

PicojoulesPerByte = NewType("PicojoulesPerByte", float)
"""Energy per byte moved (e.g. ROP write cost)."""

PicojoulesPerOp = NewType("PicojoulesPerOp", float)
"""Energy per operation (e.g. one texture-ALU op)."""

Watts = NewType("Watts", float)
"""Static/leakage power in watts."""

Gigahertz = NewType("Gigahertz", float)
"""A clock frequency in GHz."""

GigabytesPerSecond = NewType("GigabytesPerSecond", float)
"""A bandwidth in GB/s, the paper's quoting convention (Table I)."""

Degrees = NewType("Degrees", float)
"""An angle in degrees (human-facing threshold labels)."""

Radians = NewType("Radians", float)
"""An angle in radians (all internal camera-angle arithmetic)."""

BITS_PER_BYTE = 8
"""Bits per byte."""

PJ = 1e-12
"""Joules per picojoule."""
