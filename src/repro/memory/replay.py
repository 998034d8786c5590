"""The memory side's replay form: HMC and GDDR5 state for one replay.

The live memory objects answer one access per method call:
``HybridMemoryCube.internal_read`` walks ``vault_for`` ->
``HmcVault.access`` -> ``DramDevice.access`` -> ``DramBank.access_row``
and two ``BandwidthServer.access`` calls.  That chain is the memory
model's readable, unit-tested scalar form, and the references in
``tests/reference.py`` serve through it.  A replay session
(:class:`repro.core.paths.ReplaySession`) serves a whole frame instead,
so the classes here unpack each memory's mutable state into flat lists
-- per server (the links, the TSVs, the GDDR5 bus), per vault and per
DRAM bank -- and compute each access as closures over those lists, with
the live methods' arithmetic operation for operation:

* :class:`ServerReplay` -- ``BandwidthServer.access`` over a list of
  servers: the HMC's two link directions and its 32 TSV columns, or the
  GDDR5 bus;
* :class:`DramReplay` -- ``DramDevice.locate`` and
  ``DramBank.access_row`` over devices of one geometry: the HMC's
  vaults or the GDDR5 channels;
* :class:`HmcReplay` -- ``send_request``, ``send_response``,
  ``internal_read`` and ``external_read``, with the 256-byte vault
  interleave;
* :class:`Gddr5Replay` -- ``Gddr5Memory.read``, with the channel
  interleave.

A session builds these when it opens, which seeds them from the live
objects, serves every request through the closures in service order
(so float accumulators reproduce the scalar ``+=`` sequence bit for
bit), and calls ``flush()`` from its ``finish``, which writes every
field back by assignment.  Nothing else may touch the memory while a
session is open.

The live methods check each access: a negative address, a non-positive
access size.  The replay hoists them: the session checks its frame's
addresses in one vectorised pass (its columns) and its constant sizes
once (:func:`require_positive_sizes`).
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from repro.memory.dram import DramDevice
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import VAULT_BLOCK_BYTES, HybridMemoryCube
from repro.sim.resources import BandwidthServer
from repro.units import Bytes, Cycles


def require_positive_sizes(*sizes: Bytes) -> None:
    """The live methods' per-access size check, made once per session
    on the constant access and package sizes it serves."""
    for nbytes in sizes:
        if nbytes <= 0:
            raise ValueError("access size must be positive")


class ServerReplay:
    """``BandwidthServer.access`` over a list of servers.

    ``access(index, arrival, nbytes)`` serves ``nbytes`` on
    ``servers[index]`` and returns the ready time.
    """

    __slots__ = ("access", "flush")

    def __init__(self, servers: Sequence[BandwidthServer]) -> None:
        rates = [server.bytes_per_cycle for server in servers]
        latencies = [server.latency for server in servers]
        next_free = [server._next_free for server in servers]
        total_bytes = [server.total_bytes for server in servers]
        requests = [server.total_requests for server in servers]
        busy = [server.busy_cycles for server in servers]

        def access(index: int, arrival: float, nbytes: Bytes) -> float:
            previous = next_free[index]
            start = previous if previous > arrival else arrival
            occupancy = nbytes / rates[index]
            done = start + occupancy
            next_free[index] = done
            total_bytes[index] += nbytes
            requests[index] += 1
            busy[index] += occupancy
            return done + latencies[index]

        def flush() -> None:
            for index, server in enumerate(servers):
                server._next_free = Cycles(next_free[index])
                server.total_bytes = Bytes(total_bytes[index])
                server.total_requests = requests[index]
                server.busy_cycles = Cycles(busy[index])

        self.access = access
        self.flush = flush


class DramReplay:
    """``DramDevice.access`` over the devices of one memory.

    ``access(device, arrival, address)`` locates ``address`` in
    ``devices[device]`` (bank and row, as ``DramDevice.locate``) and
    serves it as ``DramBank.access_row``; the banks' state lives in flat
    lists indexed ``device * num_banks + bank``.  A memory builds all its
    devices (the HMC's vaults, the GDDR5 channels) from one
    configuration, so the first device's geometry serves for all.
    """

    __slots__ = ("access", "flush")

    def __init__(self, devices: Sequence[DramDevice]) -> None:
        first = devices[0]
        num_banks = first.num_banks
        stride = first.bank_interleave_bytes * first.interleave_step
        blocks_per_row = max(
            1, first.timing.row_bytes // first.bank_interleave_bytes
        )
        row_span = stride * num_banks * blocks_per_row
        timing = first.timing
        hit_occupancy = timing.row_hit_occupancy
        miss_occupancy = timing.row_miss_occupancy
        column_access = timing.column_access_cycles

        banks = [bank for device in devices for bank in device.banks]
        open_row = [bank.open_row for bank in banks]
        next_free = [bank._next_free for bank in banks]
        row_hits = [bank.row_hits for bank in banks]
        row_misses = [bank.row_misses for bank in banks]
        busy = [bank.busy_cycles for bank in banks]

        def access(device: int, arrival: float, address: int) -> float:
            bank = device * num_banks + (address // stride) % num_banks
            row = address // row_span
            previous = next_free[bank]
            start = previous if previous > arrival else arrival
            if row == open_row[bank]:
                occupancy = hit_occupancy
                row_hits[bank] += 1
            else:
                occupancy = miss_occupancy
                row_misses[bank] += 1
                open_row[bank] = row
            done = start + occupancy
            next_free[bank] = done
            busy[bank] += occupancy
            return done + column_access

        def flush() -> None:
            for index, bank in enumerate(banks):
                bank.open_row = open_row[index]
                bank._next_free = next_free[index]
                bank.row_hits = row_hits[index]
                bank.row_misses = row_misses[index]
                bank.busy_cycles = Cycles(busy[index])

        self.access = access
        self.flush = flush


_TX, _RX = 0, 1
"""Server indices of the two link directions; TSV ``v`` is ``2 + v``."""


class HmcReplay:
    """The cube's link, TSV, vault and bank state for one replay.

    ``send_request``, ``send_response``, ``internal_read`` and
    ``external_read`` take the live methods' arguments and return what
    they return.
    """

    __slots__ = ("send_request", "send_response", "internal_read",
                 "external_read", "flush")

    def __init__(self, hmc: HybridMemoryCube) -> None:
        vaults = hmc.vaults
        num_vaults = hmc.config.num_vaults
        access_latency = hmc.config.vault_access_latency_cycles
        servers = ServerReplay(
            [hmc.tx_link.server, hmc.rx_link.server]
            + [vault.tsv for vault in vaults]
        )
        serve = servers.access
        banks = DramReplay([vault.device for vault in vaults])
        bank_access = banks.access
        accesses = [vault.accesses for vault in vaults]
        internal_reads = hmc.internal_reads
        external_reads = hmc.external_reads

        def vault_access(arrival: float, address: int, nbytes: Bytes) -> float:
            """``vault_for(address).access(arrival, address, nbytes)``."""
            vault = (address // VAULT_BLOCK_BYTES) % num_vaults
            bank_ready = bank_access(vault, arrival, address)
            tsv_ready = serve(2 + vault, arrival, nbytes)
            accesses[vault] += 1
            ready = tsv_ready if tsv_ready > bank_ready else bank_ready
            return ready + access_latency

        def internal_read(arrival: float, address: int, nbytes: Bytes) -> float:
            nonlocal internal_reads
            internal_reads += 1
            return vault_access(arrival, address, nbytes)

        def external_read(arrival: float, address: int, request_bytes: Bytes,
                          response_bytes: Bytes) -> float:
            nonlocal external_reads
            delivered = serve(_TX, arrival, request_bytes)
            data_ready = vault_access(delivered, address, response_bytes)
            external_reads += 1
            return serve(_RX, data_ready, response_bytes)

        def flush() -> None:
            servers.flush()
            banks.flush()
            for vault, count in zip(vaults, accesses):
                vault.accesses = count
            hmc.internal_reads = internal_reads
            hmc.external_reads = external_reads

        self.send_request: Callable[[float, Bytes], float] = (
            functools.partial(serve, _TX)
        )
        self.send_response: Callable[[float, Bytes], float] = (
            functools.partial(serve, _RX)
        )
        self.internal_read = internal_read
        self.external_read = external_read
        self.flush = flush


class Gddr5Replay:
    """The GDDR5 bus, channel and bank state for one replay.

    ``read`` takes ``Gddr5Memory.read``'s arguments and returns what it
    returns.
    """

    __slots__ = ("read", "flush")

    def __init__(self, memory: Gddr5Memory) -> None:
        config = memory.config
        num_channels = config.num_channels
        interleave = config.channel_interleave_bytes
        bus = ServerReplay([memory.bus])
        bus_access = bus.access
        banks = DramReplay(memory.channels)
        bank_access = banks.access
        reads = memory.reads

        def read(arrival: float, address: int, nbytes: Bytes) -> float:
            nonlocal reads
            reads += 1
            channel = (address // interleave) % num_channels
            bank_ready = bank_access(channel, arrival, address)
            bus_ready = bus_access(0, arrival, nbytes)
            return bus_ready if bus_ready > bank_ready else bank_ready

        def flush() -> None:
            bus.flush()
            banks.flush()
            memory.reads = reads

        self.read = read
        self.flush = flush
