"""Tests for the GDDR5 memory model."""

import pytest

from repro.memory.gddr5 import Gddr5Config, Gddr5Memory


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
        ready = memory.read(0.0, address=0, nbytes=64)
        assert ready >= memory.config.access_latency_cycles

    def test_bandwidth_bound_stream(self):
        # A long stream of reads completes no faster than bytes / rate.
        config = Gddr5Config(bandwidth_gb_per_s=64.0, access_latency_cycles=0.0)
        memory = Gddr5Memory(config)
        total_bytes = 0
        last_ready = 0.0
        for index in range(1000):
            last_ready = memory.read(0.0, address=index * 64, nbytes=64)
            total_bytes += 64
        assert last_ready >= total_bytes / config.bus_bytes_per_cycle

    def test_channel_routing_by_block(self):
        memory = Gddr5Memory()
        channels = {
            id(memory.channel_for(block * memory.config.channel_interleave_bytes))
            for block in range(memory.config.num_channels)
        }
        assert len(channels) == memory.config.num_channels

    def test_reads_and_writes_counted(self):
        memory = Gddr5Memory()
        memory.read(0.0, 0, 64)
        assert memory.reads == 1
        assert memory.total_bytes == 64.0

    def test_row_hit_rate_on_stream(self):
        memory = Gddr5Memory()
        for address in range(0, 256 * 1024, 64):
            memory.read(0.0, address, 64)
        assert memory.row_hit_rate() > 0.8

    def test_invalid_sizes_rejected(self):
        memory = Gddr5Memory()
        with pytest.raises(ValueError):
            memory.read(0.0, 0, 0)

    def test_negative_address_rejected(self):
        memory = Gddr5Memory()
        with pytest.raises(ValueError):
            memory.channel_for(-1)

    def test_reset(self):
        memory = Gddr5Memory()
        memory.read(0.0, 0, 64)
        memory.reset()
        assert memory.reads == 0
        assert memory.total_bytes == 0.0
        assert memory.row_hit_rate() == 0.0
