"""Tests for the GDDR5 memory model, through its replay form.

Reads go through :class:`~repro.memory.replay.Gddr5Replay`, the form a
replay session runs, and the memory is read after ``flush()``.  A
per-access check that the sessions make once per replay is tested on
the per-access oracle in ``tests/reference.py``.
"""

import pytest

from repro.memory.gddr5 import Gddr5Config, Gddr5Memory
from repro.memory.replay import Gddr5Replay
from tests import reference


def read_all(memory, addresses, nbytes=64):
    """Read ``nbytes`` at each of ``addresses``, all arriving at cycle
    0; return the data-ready cycles."""
    replay = Gddr5Replay(memory)
    ready = [replay.read(0.0, address, nbytes) for address in addresses]
    replay.flush()
    return ready


def channel_of(memory, address):
    """The channel that the replay form reads ``address`` from: the one
    whose banks a read of it opens a row in, on the reset memory."""
    memory.reset()
    read_all(memory, [address])
    (channel,) = [channel for channel in memory.channels
                  if any(bank.row_misses for bank in channel.banks)]
    return channel


class TestGddr5Config:
    def test_table1_bandwidth(self):
        config = Gddr5Config()
        assert config.bandwidth_gb_per_s == 128.0
        assert config.bus_bytes_per_cycle == 128.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Gddr5Config(bandwidth_gb_per_s=0.0)
        with pytest.raises(ValueError):
            Gddr5Config(access_latency_cycles=-1.0)


class TestGddr5Memory:
    def test_read_includes_access_latency(self):
        memory = Gddr5Memory()
        (ready,) = read_all(memory, [0])
        assert ready >= memory.config.access_latency_cycles

    def test_bandwidth_bound_stream(self):
        # A long stream of reads completes no faster than bytes / rate.
        config = Gddr5Config(bandwidth_gb_per_s=64.0, access_latency_cycles=0.0)
        memory = Gddr5Memory(config)
        last_ready = read_all(memory, [index * 64 for index in range(1000)])[-1]
        total_bytes = 1000 * 64
        assert last_ready >= total_bytes / config.bus_bytes_per_cycle

    def test_channel_routing_by_block(self):
        memory = Gddr5Memory()
        channels = {
            id(channel_of(memory,
                          block * memory.config.channel_interleave_bytes))
            for block in range(memory.config.num_channels)
        }
        assert len(channels) == memory.config.num_channels

    def test_reads_and_writes_counted(self):
        memory = Gddr5Memory()
        read_all(memory, [0])
        assert memory.reads == 1
        assert memory.total_bytes == 64.0

    def test_row_hit_rate_on_stream(self):
        memory = Gddr5Memory()
        read_all(memory, range(0, 256 * 1024, 64))
        assert memory.row_hit_rate() > 0.8

    def test_invalid_sizes_rejected(self):
        """Sessions check their constant sizes once
        (``require_positive_sizes``); the oracle checks each access."""
        memory = Gddr5Memory()
        with pytest.raises(ValueError):
            reference.gddr5_read(memory, 0.0, 0, 0)

    def test_negative_address_rejected(self):
        """Sessions refuse a frame with a negative address once
        (``tests/core/test_replay_sessions.py``); the oracle checks each
        access."""
        memory = Gddr5Memory()
        with pytest.raises(ValueError):
            reference.channel_for(memory, -1)

    def test_reset(self):
        memory = Gddr5Memory()
        read_all(memory, [0])
        memory.reset()
        assert memory.reads == 0
        assert memory.total_bytes == 0.0
        assert memory.row_hit_rate() == 0.0
