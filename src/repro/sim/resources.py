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

    def access(self, arrival: Cycles, nbytes: Bytes) -> Cycles:
        """Serve ``nbytes`` arriving at ``arrival``; return ready time.

        The ready time includes the fixed latency.  Zero-byte accesses are
        legal and only pay the latency (useful for pure-control messages).
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        start = max(arrival, self._next_free)
        occupancy = nbytes / self.bytes_per_cycle
        self._next_free = Cycles(start + occupancy)
        self.total_bytes = Bytes(self.total_bytes + nbytes)
        self.total_requests += 1
        self.busy_cycles = Cycles(self.busy_cycles + occupancy)
        return Cycles(self._next_free + self.latency)

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

    def issue(self, arrival: Cycles, ops: Ops = Ops(1.0)) -> Cycles:
        """Issue ``ops`` back-to-back operations; return completion time."""
        if ops < 0:
            raise ValueError("negative op count")
        start = max(arrival, self._next_issue)
        occupancy = ops / self.ops_per_cycle
        self._next_issue = Cycles(start + occupancy)
        self.total_ops = Ops(self.total_ops + int(ops))
        self.busy_cycles = Cycles(self.busy_cycles + occupancy)
        return Cycles(self._next_issue + self.pipeline_depth)

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

    def enqueue(self, arrival: Cycles) -> Cycles:
        """Admit one request; return the cycle at which it is admitted.

        The queue drains ``drain_rate`` entries per cycle, so an entry that
        arrives when the queue holds ``capacity`` in-flight entries is
        admitted only when the oldest entry has drained.  The model keeps a
        single "head would be free at" pointer: the queue is equivalent to
        a server of rate ``drain_rate`` with ``capacity`` buffer slots.
        """
        # The queue holds (free_at - t) * drain_rate entries at time t; a
        # new entry is admitted once at most capacity - 1 remain queued.
        buffered = Ops(float(self.capacity - 1))
        earliest_slot = self._occupancy_free_at - buffered / self.drain_rate
        admitted = max(arrival, earliest_slot)
        stall = admitted - arrival
        self._occupancy_free_at = Cycles(
            max(self._occupancy_free_at, admitted) + Ops(1.0) / self.drain_rate
        )
        self.total_enqueued += 1
        self.total_stall_cycles = Cycles(self.total_stall_cycles + stall)
        return admitted

    def reset(self) -> None:
        self._occupancy_free_at = Cycles(0.0)
        self.total_enqueued = 0
        self.total_stall_cycles = Cycles(0.0)
