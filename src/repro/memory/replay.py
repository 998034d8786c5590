"""The memory side's timing model: HMC and GDDR5 service for one replay.

The memory objects (:class:`~repro.memory.hmc.HybridMemoryCube`,
:class:`~repro.memory.gddr5.Gddr5Memory`, their
:class:`~repro.memory.dram.DramDevice` banks and
:class:`~repro.sim.resources.BandwidthServer` links, TSVs and bus) hold
configuration and state.  A replay session
(:class:`repro.core.paths.ReplaySession`) serves a whole frame, so the
classes here unpack each memory's mutable state into flat lists -- per
server (the links, the TSVs, the GDDR5 bus), per vault and per DRAM
bank -- and compute each access as closures over those lists:

* :class:`ServerReplay` -- FIFO occupancy over a list of servers: the
  HMC's two link directions and its 32 TSV columns, or the GDDR5 bus;
* :class:`DramReplay` -- an address's bank and row, and the open-row
  bank model, over devices of one geometry: the HMC's vaults or the
  GDDR5 channels;
* :class:`HmcReplay` -- the request and response packages over the
  links, and internal and external reads, with the 256-byte vault
  interleave;
* :class:`Gddr5Replay` -- a GDDR5 read, with the channel interleave.

A session builds these when it opens, which seeds them from the memory
objects, serves every request through the closures in service order
(so float accumulators add in the order the accesses happen), and
calls ``flush()`` from its ``finish``, which writes every field back by
assignment.  Nothing else may touch the memory while a session is
open.

These closures are the memory's only timing code.  Their oracle is the
per-access form in ``tests/reference.py`` (``server_access``,
``device_access``, ``internal_read``, ``external_read``,
``gddr5_read``, ...), one call per access on the memory objects with
the same arithmetic, operation for operation, and its checks of each
access: a negative address, a non-positive access size.  The replay
hoists those checks: the session checks its frame's addresses in one
vectorised pass (its columns) and its constant sizes once
(:func:`require_positive_sizes`).
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
    """The per-access size check, made once per session on the constant
    access and package sizes it serves."""
    for nbytes in sizes:
        if nbytes <= 0:
            raise ValueError("access size must be positive")


class ServerReplay:
    """FIFO occupancy over a list of :class:`BandwidthServer` objects.

    ``access(index, arrival, nbytes)`` serves ``nbytes`` on
    ``servers[index]`` and returns the ready time: the access starts
    when both it and the server are free, occupies the server for
    ``nbytes / bytes_per_cycle`` cycles, and is ready the server's fixed
    latency after that.  A zero-byte access only pays the latency.
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
    """Bank accesses over the devices of one memory.

    ``access(device, arrival, address)`` places ``address`` in
    ``devices[device]`` -- the bank of its interleave block and the row
    of its span, as :class:`~repro.memory.dram.DramDevice` describes --
    and serves it on that bank (:class:`~repro.memory.dram.DramBank`):
    it starts when both it and the bank are free, occupies the bank for
    a burst on a row hit or for precharge, activate and burst on a miss
    (which opens its row), and returns the data-ready time, one column
    access latency later.  The banks' state lives in flat lists indexed
    ``device * num_banks + bank``.  A memory builds all its
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

    ``send_request(arrival, nbytes)`` and ``send_response(arrival,
    nbytes)`` ship a package over the transmit or the receive link and
    return its delivery cycle.  ``internal_read(arrival, address,
    nbytes)`` is a logic-layer read: the address's vault reads its bank
    and occupies its TSV column at once, and the data is ready the vault
    access latency after the later of the two.  ``external_read(arrival,
    address, request_bytes, response_bytes)`` ships the request over the
    transmit link, reads the vault on delivery, and returns when the
    response has crossed the receive link.
    """

    __slots__ = ("send_request", "send_response", "internal_read",
                 "external_read", "flush")

    def __init__(self, hmc: HybridMemoryCube) -> None:
        vaults = hmc.vaults
        num_vaults = hmc.config.num_vaults
        access_latency = hmc.config.vault_access_latency_cycles
        servers = ServerReplay(
            [hmc.tx_link, hmc.rx_link]
            + [vault.tsv for vault in vaults]
        )
        serve = servers.access
        banks = DramReplay([vault.device for vault in vaults])
        bank_access = banks.access
        accesses = [vault.accesses for vault in vaults]
        internal_reads = hmc.internal_reads
        external_reads = hmc.external_reads

        def vault_access(arrival: float, address: int, nbytes: Bytes) -> float:
            """A read of ``address``'s vault: its bank and TSV column."""
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

    ``read(arrival, address, nbytes)`` reads ``nbytes`` at ``address``
    from the channel of its interleave block and over the data bus at
    once, and returns the later of the two ready times.
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
