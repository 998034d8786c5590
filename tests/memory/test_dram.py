"""Tests for the bank/row DRAM model, through its replay form.

Accesses go through :class:`~repro.memory.replay.DramReplay`, the form a
replay session runs, and the banks are read after ``flush()``.  A bank
on its own is a device of one bank, whose row ``r`` starts at byte
``r * row_bytes``.  A per-access check that the sessions make once per
frame is tested on the per-access oracle in ``tests/reference.py``.
"""

import pytest

from repro.memory.dram import DramBank, DramDevice, DramTiming
from repro.memory.replay import DramReplay
from tests import reference


def one_bank(timing):
    """A device of one bank: row ``r`` starts at ``r * row_bytes``."""
    return DramDevice(timing, num_banks=1)


def access_rows(device, *accesses):
    """Serve ``(arrival, row)`` accesses on a one-bank ``device``;
    return their data-ready times."""
    replay = DramReplay([device])
    row_bytes = device.timing.row_bytes
    ready = [replay.access(0, arrival, row * row_bytes)
             for arrival, row in accesses]
    replay.flush()
    return ready


def access_all(device, addresses, arrival=0.0):
    """Serve an access to each of ``addresses`` on ``device``."""
    replay = DramReplay([device])
    for address in addresses:
        replay.access(0, arrival, address)
    replay.flush()


def located(device, address):
    """The bank and row that the replay form serves ``address`` on: the
    one bank an access opens a row in on the reset device, and that
    row."""
    device.reset()
    access_all(device, [address])
    (bank,) = [index for index, bank in enumerate(device.banks)
               if bank.row_misses]
    return bank, device.banks[bank].open_row


class TestDramTiming:
    def test_occupancies(self):
        timing = DramTiming()
        assert timing.row_hit_occupancy == timing.burst_cycles
        assert timing.row_miss_occupancy == (
            timing.precharge_cycles
            + timing.row_activate_cycles
            + timing.burst_cycles
        )
        assert timing.row_miss_occupancy > timing.row_hit_occupancy

    def test_validation(self):
        with pytest.raises(ValueError):
            DramTiming(row_bytes=0)
        with pytest.raises(ValueError):
            DramTiming(burst_cycles=-1.0)


class TestDramBank:
    def test_first_access_is_row_miss(self):
        device = one_bank(DramTiming())
        access_rows(device, (0.0, 3))
        bank = device.banks[0]
        assert bank.row_misses == 1
        assert bank.open_row == 3

    def test_second_access_same_row_hits(self):
        device = one_bank(DramTiming())
        access_rows(device, (0.0, 3), (50.0, 3))
        assert device.banks[0].row_hits == 1

    def test_row_switch_misses(self):
        device = one_bank(DramTiming())
        access_rows(device, (0.0, 3), (50.0, 4))
        assert device.banks[0].row_misses == 2

    def test_hit_occupies_only_burst(self):
        timing = DramTiming()
        device = one_bank(timing)
        bank = device.banks[0]
        replay = DramReplay([device])
        replay.access(0, 0.0, timing.row_bytes)
        replay.flush()
        free_after_miss = bank.next_free
        ready = replay.access(0, free_after_miss, timing.row_bytes)
        replay.flush()
        assert bank.next_free - free_after_miss == pytest.approx(
            timing.burst_cycles
        )
        # CAS latency is pipelined on top of occupancy.
        assert ready == pytest.approx(
            bank.next_free + timing.column_access_cycles
        )

    def test_queueing_behind_busy_bank(self):
        device = one_bank(DramTiming())
        bank = device.banks[0]
        replay = DramReplay([device])
        replay.access(0, 0.0, device.timing.row_bytes)
        replay.flush()
        busy_until = bank.next_free
        replay.access(0, 0.0, device.timing.row_bytes)
        replay.flush()
        assert bank.next_free > busy_until

    def test_row_hit_rate(self):
        device = one_bank(DramTiming())
        access_rows(device, (0.0, 1), (0.0, 1), (0.0, 1))
        assert device.banks[0].row_hit_rate() == pytest.approx(2.0 / 3.0)

    def test_negative_row_rejected(self):
        """Sessions refuse a frame with a negative address once
        (``tests/core/test_replay_sessions.py``); the oracle checks each
        access."""
        bank = DramBank(DramTiming())
        with pytest.raises(ValueError):
            reference.access_row(bank, 0.0, row=-1)

    def test_reset(self):
        device = one_bank(DramTiming())
        access_rows(device, (0.0, 1))
        bank = device.banks[0]
        bank.reset()
        assert bank.open_row is None
        assert bank.row_hit_rate() == 0.0


class TestDramDevice:
    def test_block_interleaving_rotates_banks(self):
        device = DramDevice(DramTiming(), num_banks=4, bank_interleave_bytes=256)
        banks = {located(device, block * 256)[0] for block in range(4)}
        assert banks == {0, 1, 2, 3}

    def test_same_block_same_bank(self):
        device = DramDevice(DramTiming(), num_banks=4)
        bank_a, _ = located(device, 256 * 7)
        bank_b, _ = located(device, 256 * 7 + 128)
        assert bank_a == bank_b

    def test_streaming_sweep_hits_rows(self):
        # A linear sweep larger than one row span should mostly row-hit.
        device = DramDevice(DramTiming(), num_banks=4)
        access_all(device, range(0, 64 * 1024, 64))
        assert device.row_hit_rate() > 0.85

    def test_interleave_step_shifts_bank_rotation(self):
        # With step 32 (an HMC vault), every 32nd block belongs to this
        # device, and its banks rotate across those.
        device = DramDevice(
            DramTiming(), num_banks=8, bank_interleave_bytes=256, interleave_step=32
        )
        stride = 256 * 32
        banks = {located(device, block * stride)[0] for block in range(8)}
        assert banks == set(range(8))

    def test_busy_accounting(self):
        device = DramDevice(DramTiming(), num_banks=2)
        access_all(device, [0])
        assert device.busy_cycles > 0

    def test_negative_address_rejected(self):
        """Sessions refuse a frame with a negative address once
        (``tests/core/test_replay_sessions.py``); the oracle checks each
        access."""
        device = DramDevice(DramTiming())
        with pytest.raises(ValueError):
            reference.locate(device, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DramDevice(DramTiming(), num_banks=0)
        with pytest.raises(ValueError):
            DramDevice(DramTiming(), bank_interleave_bytes=0)
        with pytest.raises(ValueError):
            DramDevice(DramTiming(), interleave_step=0)

    def test_reset(self):
        device = DramDevice(DramTiming())
        access_all(device, [0])
        device.reset()
        assert device.row_hit_rate() == 0.0
        assert device.busy_cycles == 0.0
