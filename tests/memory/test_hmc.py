"""Tests for the Hybrid Memory Cube model, through its replay form.

Accesses go through :class:`~repro.memory.replay.HmcReplay`, the form a
replay session runs, and the cube is read after ``flush()``.  A
per-access check that the sessions make once per replay is tested on
the per-access oracle in ``tests/reference.py``.
"""

import pytest

from repro.memory.hmc import (
    HmcConfig,
    HybridMemoryCube,
    VAULT_BLOCK_BYTES,
)
from repro.memory.replay import HmcReplay
from tests import reference


def vault_of(hmc, address):
    """The vault that the replay form serves ``address`` from: the one
    an internal read of it counts an access in, on the reset cube."""
    hmc.reset()
    replay = HmcReplay(hmc)
    replay.internal_read(0.0, address, 64)
    replay.flush()
    (vault,) = [vault for vault in hmc.vaults if vault.accesses]
    return vault


class TestHmcConfig:
    def test_spec_values(self):
        config = HmcConfig()
        assert config.external_bandwidth_gb_per_s == 320.0
        assert config.internal_bandwidth_gb_per_s == 512.0
        assert config.num_vaults == 32
        assert config.banks_per_vault == 8
        assert config.tsv_latency_cycles == 1.0

    def test_internal_must_exceed_external(self):
        # The internal > external asymmetry is the premise of TFIM.
        with pytest.raises(ValueError):
            HmcConfig(
                external_bandwidth_gb_per_s=512.0,
                internal_bandwidth_gb_per_s=320.0,
            )

    def test_link_rate_full_duplex_per_direction(self):
        config = HmcConfig()
        assert config.link_bytes_per_cycle == pytest.approx(320.0)

    def test_vault_rate_divides_internal(self):
        config = HmcConfig()
        assert config.vault_bytes_per_cycle == pytest.approx(512.0 / 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            HmcConfig(num_vaults=0)
        with pytest.raises(ValueError):
            HmcConfig(external_bandwidth_gb_per_s=-1.0)


class TestHybridMemoryCube:
    def test_vault_block_interleaving(self):
        hmc = HybridMemoryCube()
        first = vault_of(hmc, 0)
        second = vault_of(hmc, VAULT_BLOCK_BYTES)
        assert first.index != second.index
        assert vault_of(hmc, VAULT_BLOCK_BYTES - 1).index == first.index

    def test_vault_wraps(self):
        hmc = HybridMemoryCube()
        wrapped = vault_of(hmc, VAULT_BLOCK_BYTES * hmc.config.num_vaults)
        assert wrapped.index == 0

    def test_negative_address_rejected(self):
        """Sessions refuse a frame with a negative address once
        (``tests/core/test_replay_sessions.py``); the oracle checks each
        access."""
        hmc = HybridMemoryCube()
        with pytest.raises(ValueError):
            reference.vault_for(hmc, -1)

    def test_external_read_crosses_both_links(self):
        hmc = HybridMemoryCube()
        replay = HmcReplay(hmc)
        replay.external_read(0.0, address=0, request_bytes=16,
                             response_bytes=80)
        replay.flush()
        assert hmc.tx_link.total_bytes == 16.0
        assert hmc.rx_link.total_bytes == 80.0
        assert hmc.external_reads == 1

    def test_internal_read_stays_off_links(self):
        hmc = HybridMemoryCube()
        replay = HmcReplay(hmc)
        replay.internal_read(0.0, address=0, nbytes=64)
        replay.flush()
        assert hmc.tx_link.total_bytes == 0.0
        assert hmc.rx_link.total_bytes == 0.0
        assert hmc.internal_bytes == 64.0
        assert hmc.internal_reads == 1

    def test_internal_read_faster_than_external(self):
        hmc = HybridMemoryCube()
        external = HmcReplay(hmc).external_read(0.0, 0, 16, 80)
        hmc.reset()
        internal = HmcReplay(hmc).internal_read(0.0, 0, 64)
        assert internal < external

    def test_full_duplex_directions_independent(self):
        hmc = HybridMemoryCube()
        replay = HmcReplay(hmc)
        # Saturate tx; rx should be unaffected.
        for _ in range(100):
            replay.send_request(0.0, 1024)
        rx_ready = replay.send_response(0.0, 64)
        replay.flush()
        assert rx_ready < hmc.tx_link.next_free

    def test_vault_bank_timing_progresses(self):
        hmc = HybridMemoryCube()
        replay = HmcReplay(hmc)
        first = replay.internal_read(0.0, 0, 64)
        second = replay.internal_read(0.0, 0, 64)
        assert second > first - hmc.config.vault_access_latency_cycles

    def test_invalid_size_rejected(self):
        """Sessions check their constant sizes once
        (``require_positive_sizes``); the oracle checks each access."""
        hmc = HybridMemoryCube()
        with pytest.raises(ValueError):
            reference.internal_read(hmc, 0.0, 0, 0)

    def test_reset(self):
        hmc = HybridMemoryCube()
        replay = HmcReplay(hmc)
        replay.external_read(0.0, 0, 16, 80)
        replay.internal_read(0.0, 0, 64)
        replay.flush()
        hmc.reset()
        assert hmc.external_bytes == 0.0
        assert hmc.internal_bytes == 0.0
        assert hmc.external_reads == 0
        assert hmc.internal_reads == 0
