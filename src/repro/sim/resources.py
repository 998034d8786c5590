"""Shared-resource occupancy models.

Every contended hardware structure in the simulator -- a memory channel, an
HMC serial link, a vault, a texture-unit pipeline stage -- is modelled as a
server with a rolling *next-free-cycle* pointer.  A request arriving at
cycle ``t`` with size ``s`` on a server of rate ``r`` completes its
occupancy at ``max(t, next_free) + s / r`` and its data is *ready* one
fixed latency later.  This is the standard "resource occupancy" shortcut
used by architecture-lite simulators: it reproduces bandwidth saturation
and queueing delay exactly for FIFO servers, while being orders of
magnitude faster than per-cycle ticking.

The classes here hold each resource's configuration and state; a replay
serves accesses on them through its replay form, which seeds its state
from these objects and writes it back when the replay finishes:
:class:`repro.memory.replay.ServerReplay` for a
:class:`BandwidthServer`, :class:`repro.core.paths.UnitReplayState` for
the :class:`ThroughputUnit` stages of a texture unit and
:class:`repro.core.paths.QueueReplay` for a :class:`RequestQueue`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import Bytes, BytesPerCycle, Cycles, Ops, OpsPerCycle


@dataclass
class BandwidthServer:
    """A FIFO resource limited by a transfer rate and a fixed latency.

    Parameters
    ----------
    name:
        Human-readable identifier, used in stats output.
    bytes_per_cycle:
        Sustained transfer rate.  For a 128 GB/s GDDR5 interface on a
        1 GHz GPU clock this is 128.0.
    latency:
        Fixed pipe latency added after the occupancy interval (e.g. DRAM
        access latency, SerDes latency).
    """

    name: str
    bytes_per_cycle: BytesPerCycle
    latency: Cycles = Cycles(0.0)
    _next_free: Cycles = field(default=Cycles(0.0), repr=False)
    total_bytes: Bytes = field(default=Bytes(0.0), repr=False)
    total_requests: int = field(default=0, repr=False)
    busy_cycles: Cycles = field(default=Cycles(0.0), repr=False)

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ValueError(f"{self.name}: rate must be positive")
        if self.latency < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")

    @property
    def next_free(self) -> Cycles:
        return self._next_free

    def reset(self) -> None:
        self._next_free = Cycles(0.0)
        self.total_bytes = Bytes(0.0)
        self.total_requests = 0
        self.busy_cycles = Cycles(0.0)


@dataclass
class ThroughputUnit:
    """A pipelined functional unit with an issue rate and a pipe depth.

    Models units like the texture filtering ALU array: a new operation can
    issue every ``1 / ops_per_cycle`` cycles, and a given operation's
    result is available ``pipeline_depth`` cycles after issue.
    """

    name: str
    ops_per_cycle: OpsPerCycle
    pipeline_depth: Cycles = Cycles(1.0)
    _next_issue: Cycles = field(default=Cycles(0.0), repr=False)
    total_ops: Ops = field(default=Ops(0), repr=False)
    busy_cycles: Cycles = field(default=Cycles(0.0), repr=False)

    def __post_init__(self) -> None:
        if self.ops_per_cycle <= 0:
            raise ValueError(f"{self.name}: ops_per_cycle must be positive")
        if self.pipeline_depth < 0:
            raise ValueError(f"{self.name}: pipeline depth must be non-negative")

    @property
    def next_issue(self) -> Cycles:
        return self._next_issue

    def reset(self) -> None:
        self._next_issue = Cycles(0.0)
        self.total_ops = Ops(0)
        self.busy_cycles = Cycles(0.0)


@dataclass
class RequestQueue:
    """A bounded FIFO with stall accounting.

    Used for the S-TFIM texture request queue (paper section IV): when the
    queue is full, the MTU sends a "stall" signal and the shader suspends
    until a "resume" arrives.  In the occupancy model, fullness translates
    into a delayed effective arrival time for the incoming request, and we
    account the delay as stall cycles.

    The queue drains ``drain_rate`` entries per cycle, so an entry that
    arrives when the queue holds ``capacity`` in-flight entries is
    admitted only when the oldest entry has drained.  The model keeps a
    single "head would be free at" pointer: the queue is equivalent to a
    server of rate ``drain_rate`` with ``capacity`` buffer slots.
    """

    name: str
    capacity: int
    drain_rate: OpsPerCycle = OpsPerCycle(1.0)
    _occupancy_free_at: Cycles = field(default=Cycles(0.0), repr=False)
    total_enqueued: int = field(default=0, repr=False)
    total_stall_cycles: Cycles = field(default=Cycles(0.0), repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.drain_rate <= 0:
            raise ValueError(f"{self.name}: drain rate must be positive")

    def reset(self) -> None:
        self._occupancy_free_at = Cycles(0.0)
        self.total_enqueued = 0
        self.total_stall_cycles = Cycles(0.0)
