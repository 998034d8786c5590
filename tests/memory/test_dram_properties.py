"""Property-based tests for the bank/row DRAM model's replay form.

Every property drives :class:`~repro.memory.replay.DramReplay`, the form
a replay session runs, and reads the banks after ``flush()``;
:func:`tests.memory.test_dram.located` reads an address's bank and row
off the form.  ``test_matches_the_oracle`` also serves the same accesses
on twin devices through the per-access oracle in ``tests/reference.py``
and demands the same bits: every ready time and every bank's state.
"""

from hypothesis import given, settings, strategies as st

from repro.memory.dram import DramDevice, DramTiming
from repro.memory.replay import DramReplay
from tests import reference
from tests.conftest import NO_SHRINK
from tests.gpu.test_replay_batch import bank_state
from tests.memory.test_dram import access_rows, located, one_bank

addresses = st.lists(
    st.integers(0, 1 << 20).map(lambda value: (value // 4) * 4),
    min_size=1,
    max_size=80,
)


@st.composite
def device_cases(draw):
    """Devices of one geometry, as a memory builds them, and accesses to
    them in no particular time order."""
    count = draw(st.integers(1, 4))
    geometry = dict(
        timing=DramTiming(row_bytes=draw(st.sampled_from([256, 1024, 2048])),
                          burst_cycles=draw(st.sampled_from([1.0, 4.0]))),
        num_banks=draw(st.integers(1, 8)),
        bank_interleave_bytes=draw(st.sampled_from([64, 256])),
        interleave_step=draw(st.sampled_from([1, 4, 32])),
    )
    accesses = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.floats(0, 500),
                  st.integers(0, 1 << 16)),
        max_size=80,
    ))
    return count, geometry, accesses


class TestDramProperties:
    @settings(NO_SHRINK, max_examples=100)
    @given(rows=st.lists(st.integers(0, 7), min_size=1, max_size=60))
    def test_bank_busy_equals_sum_of_occupancies(self, rows):
        timing = DramTiming()
        device = one_bank(timing)
        access_rows(device, *((0.0, row) for row in rows))
        bank = device.banks[0]
        expected = (
            bank.row_hits * timing.row_hit_occupancy
            + bank.row_misses * timing.row_miss_occupancy
        )
        assert bank.busy_cycles == expected
        assert bank.row_hits + bank.row_misses == len(rows)

    @settings(NO_SHRINK, max_examples=100)
    @given(rows=st.lists(st.integers(0, 7), min_size=1, max_size=60))
    def test_bank_ready_times_monotone(self, rows):
        ready = access_rows(one_bank(DramTiming()),
                            *((0.0, row) for row in rows))
        assert ready == sorted(ready)

    @settings(NO_SHRINK, max_examples=100)
    @given(sequence=addresses)
    def test_locate_is_deterministic_and_in_range(self, sequence):
        device = DramDevice(DramTiming(), num_banks=8)
        for address in sequence:
            bank_a, row_a = located(device, address)
            bank_b, row_b = located(device, address)
            assert (bank_a, row_a) == (bank_b, row_b)
            assert 0 <= bank_a < 8
            assert row_a >= 0

    @settings(NO_SHRINK, max_examples=50)
    @given(sequence=addresses)
    def test_same_block_never_splits_banks(self, sequence):
        device = DramDevice(DramTiming(), num_banks=8,
                            bank_interleave_bytes=256)
        for address in sequence:
            block_base = (address // 256) * 256
            bank_base, _ = located(device, block_base)
            bank_here, _ = located(device, address)
            assert bank_here == bank_base

    @settings(NO_SHRINK, max_examples=50)
    @given(sequence=addresses)
    def test_single_open_row_per_bank_invariant(self, sequence):
        """After any access sequence, each bank has exactly the row of
        its last access open."""
        device = DramDevice(DramTiming(), num_banks=4)
        replay = DramReplay([device])
        last_row = {}
        for address in sequence:
            bank, row = reference.locate(device, address)
            replay.access(0, 0.0, address)
            last_row[bank] = row
        replay.flush()
        for bank_index, row in last_row.items():
            assert device.banks[bank_index].open_row == row

    @settings(NO_SHRINK, max_examples=200)
    @given(case=device_cases())
    def test_matches_the_oracle(self, case):
        count, geometry, accesses = case
        oracle, replayed = ([DramDevice(**geometry) for _ in range(count)]
                            for _ in range(2))
        replay = DramReplay(replayed)
        for device, arrival, address in accesses:
            assert replay.access(device, arrival, address) == (
                reference.device_access(oracle[device], arrival, address))
        replay.flush()
        assert ([bank_state(bank) for device in replayed
                 for bank in device.banks]
                == [bank_state(bank) for device in oracle
                    for bank in device.banks])
