"""The HMC and GDDR5 replay forms against the per-access oracle.

:class:`~repro.memory.replay.HmcReplay` and
:class:`~repro.memory.replay.Gddr5Replay` put each memory's interleave
and access counters around ``ServerReplay`` and ``DramReplay``.  Each
example serves a random stream of accesses -- packages over either link
and internal and external reads for the cube, reads for GDDR5 -- through
the form and, on a twin memory, through the oracle in
``tests/reference.py``, and demands the same bits: every ready time and,
after ``flush()``, every server, bank and counter.  Small geometries
make accesses meet on vaults, channels, banks and rows.
"""

from hypothesis import given, settings, strategies as st

from repro.memory.gddr5 import Gddr5Config, Gddr5Memory
from repro.memory.hmc import HmcConfig, HybridMemoryCube
from repro.memory.replay import Gddr5Replay, HmcReplay
from tests import reference
from tests.conftest import NO_SHRINK
from tests.gpu.test_replay_batch import bank_state, server_state

arrival = st.floats(0, 500)
address = st.integers(0, 1 << 14).map(lambda value: value * 16)
size = st.sampled_from([16, 64, 80, 300])


def hmc_state(hmc):
    vaults = hmc.vaults
    return (
        [server_state(server)
         for server in [hmc.tx_link, hmc.rx_link]
         + [vault.tsv for vault in vaults]],
        [bank_state(bank) for vault in vaults for bank in vault.device.banks],
        [vault.accesses for vault in vaults],
        (hmc.external_reads, hmc.internal_reads),
    )


def gddr5_state(memory):
    return (
        server_state(memory.bus),
        [bank_state(bank) for channel in memory.channels
         for bank in channel.banks],
        memory.reads,
    )


hmc_accesses = st.lists(st.one_of(
    st.tuples(st.just("send_request"), arrival, size),
    st.tuples(st.just("send_response"), arrival, size),
    st.tuples(st.just("internal_read"), arrival, address, size),
    st.tuples(st.just("external_read"), arrival, address, size, size),
), max_size=60)


class TestHmcReplayMatchesTheOracle:
    @settings(NO_SHRINK, max_examples=200)
    @given(vaults=st.sampled_from([1, 4, 32]),
           banks=st.sampled_from([1, 2, 8]),
           accesses=hmc_accesses)
    def test_every_access_and_the_state_left(self, vaults, banks, accesses):
        config = HmcConfig(num_vaults=vaults, banks_per_vault=banks)
        oracle, replayed = HybridMemoryCube(config), HybridMemoryCube(config)
        replay = HmcReplay(replayed)
        for name, *args in accesses:
            assert getattr(replay, name)(*args) == (
                getattr(reference, name)(oracle, *args))
        replay.flush()
        assert hmc_state(replayed) == hmc_state(oracle)


class TestGddr5ReplayMatchesTheOracle:
    @settings(NO_SHRINK, max_examples=200)
    @given(channels=st.sampled_from([1, 2, 4]),
           banks=st.sampled_from([1, 4, 16]),
           reads=st.lists(st.tuples(arrival, address, size), max_size=60))
    def test_every_read_and_the_state_left(self, channels, banks, reads):
        config = Gddr5Config(num_channels=channels, num_banks=banks)
        oracle, replayed = Gddr5Memory(config), Gddr5Memory(config)
        replay = Gddr5Replay(replayed)
        for args in reads:
            assert replay.read(*args) == reference.gddr5_read(oracle, *args)
        replay.flush()
        assert gddr5_state(replayed) == gddr5_state(oracle)
