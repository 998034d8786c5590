"""The production replay serves every resource through its replay form.

Each contended resource has one timing model in ``src/``: the replay
form a session opens over it (``ServerReplay``, ``DramReplay``,
``HmcReplay``, ``Gddr5Replay``, ``QueueReplay``, ``MergeWindowReplay``,
``UnitReplayState`` and ``L1Replay``, and the L2 inlined in the
baseline/B-PIM and A-TFIM sessions).  The per-access form, one call per
access over a component's state, lives only in ``tests/reference.py``
as those forms' oracle.  Bit-identity with the references is
``tests/gpu/test_replay_batch.py``'s job; these tests pin that no
component in ``src/`` defines a per-access method, that the production
path calls no oracle function, and that the per-access checks the
sessions hoist still refuse bad frames.
"""

import dataclasses

import pytest

from repro.core import Design, simulate_frame, simulate_sequence
from repro.core.designs import DesignConfig
from repro.core.expansion import RequestExpander
from repro.core.frontend import make_texture_path
from repro.core.paths import ReadMergeWindow
from repro.gpu.pipeline import GpuPipeline
from repro.gpu.texunit import TextureUnit
from repro.memory import hmc
from repro.memory.dram import DramBank, DramDevice
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import HmcVault, HybridMemoryCube
from repro.memory.traffic import TrafficMeter
from repro.render.renderer import Renderer
from repro.sim.resources import BandwidthServer, RequestQueue, ThroughputUnit
from repro.texture.cache import TextureCache
from repro.workloads import workload_by_name
from tests import reference
from tests.conftest import make_tiny_scene

PER_ACCESS_METHODS = (
    (BandwidthServer, "access"),
    (ThroughputUnit, "issue"),
    (RequestQueue, "enqueue"),
    (DramBank, "access_row"),
    (DramDevice, "locate"),
    (DramDevice, "access"),
    (Gddr5Memory, "channel_for"),
    (Gddr5Memory, "_access"),
    (Gddr5Memory, "read"),
    (HmcVault, "access"),
    (HybridMemoryCube, "vault_for"),
    (HybridMemoryCube, "external_read"),
    (HybridMemoryCube, "send_request"),
    (HybridMemoryCube, "send_response"),
    (HybridMemoryCube, "internal_read"),
    (TextureCache, "_locate"),
    (TextureCache, "lookup"),
    (TextureCache, "_quantized"),
    (TextureCache, "_fill"),
    (TextureCache, "contains"),
    (ReadMergeWindow, "lookup"),
    (ReadMergeWindow, "insert"),
    (TextureUnit, "generate_addresses"),
    (TextureUnit, "filter_texels"),
    (TextureUnit, "note_request"),
)
"""The per-access methods that the components' replay forms replaced;
their arithmetic is the oracle's in ``tests/reference.py``."""

ORACLE_FUNCTIONS = (
    "server_access", "stage_issue", "generate_addresses", "filter_texels",
    "note_request", "enqueue", "window_lookup", "window_insert",
    "access_row", "locate", "device_access", "channel_for", "gddr5_read",
    "vault_for", "vault_access", "external_read", "send_request",
    "send_response", "internal_read", "cache_lookup", "cache_contains",
)
"""The per-access functions of ``tests/reference.py``."""


@pytest.mark.parametrize(
    "owner, name", PER_ACCESS_METHODS,
    ids=[f"{owner.__name__}.{name}" for owner, name in PER_ACCESS_METHODS],
)
def test_no_component_defines_a_per_access_method(owner, name):
    assert not hasattr(owner, name)


def test_the_link_is_a_bandwidth_server():
    """The cube's link directions are bandwidth servers, served by
    ``ServerReplay`` like the TSVs and the GDDR5 bus."""
    cube = HybridMemoryCube()
    assert type(cube.tx_link) is type(cube.rx_link) is BandwidthServer
    assert not hasattr(hmc, "HmcLink")


@pytest.fixture
def forbid_per_access_calls(monkeypatch):
    """Every per-access function of the oracle refuses to run."""
    for name in ORACLE_FUNCTIONS:
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"per-access call to {_name}")

        monkeypatch.setattr(reference, name, refuse)


@pytest.fixture(scope="module")
def tiny():
    scene, camera = make_tiny_scene()
    renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
    trace = renderer.trace_only(scene, camera).trace
    return {"trace": trace, "frame": RequestExpander(scene).expand_frame(trace)}


class TestReplayMakesNoPerAccessCall:
    """With every per-access function of the oracle refusing, a fast
    workload still simulates under every design, with anisotropy off
    too, and as a sequence: production serves every resource through
    its replay form, and the oracle serves the references alone."""

    @pytest.fixture(scope="class")
    def workload(self):
        return workload_by_name("doom3-640x480")

    @pytest.fixture(scope="class")
    def traced(self, workload):
        return workload.trace()

    @pytest.mark.parametrize(
        "design, aniso",
        [(design, True) for design in Design]
        + [(Design.BASELINE, False), (Design.A_TFIM, False)],
        ids=lambda value: value.value if isinstance(value, Design)
        else ("aniso" if value else "iso"),
    )
    def test_simulate_frame(self, workload, traced, forbid_per_access_calls,
                            design, aniso):
        scene, trace = traced
        config = dataclasses.replace(
            workload.design_config(design), aniso_enabled=aniso
        )
        run = simulate_frame(scene, trace, config)
        assert run.frame.num_requests == len(trace)
        assert run.frame.texture_cycles > 0

    def test_simulate_sequence(self, workload, traced,
                               forbid_per_access_calls):
        scene, trace = traced
        result = simulate_sequence(
            scene, [trace, trace], workload.design_config(Design.A_TFIM)
        )
        assert result.num_frames == 2

    @pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
    def test_the_patch_bites(self, tiny, forbid_per_access_calls, design):
        """The reference replay serves through the per-access functions,
        so the parity tests compare every design with the oracle."""
        config = DesignConfig(design=design)
        path = make_texture_path(config, TrafficMeter())
        with pytest.raises(AssertionError, match="per-access call"):
            reference.replay_texture_stream(
                GpuPipeline(config.gpu), tiny["trace"], tiny["frame"], path
            )


def replay_with(tiny, design, **changes):
    """Replay the tiny frame, with ``changes`` made to its arrays,
    through a fresh production path."""
    config = DesignConfig(design=design)
    frame = tiny["frame"]
    broken = dataclasses.replace(
        frame, **{name: change(getattr(frame, name).copy())
                  for name, change in changes.items()}
    )
    path = make_texture_path(config, TrafficMeter())
    GpuPipeline(config.gpu).replay_texture_stream(tiny["trace"], broken, path)


def negate_first(values):
    values[0] = -64
    return values


class TestHoistedChecks:
    """The per-access checks the sessions hoist to one check per frame."""

    @pytest.mark.parametrize(
        "design", (Design.BASELINE, Design.B_PIM, Design.S_TFIM),
        ids=lambda d: d.value,
    )
    def test_negative_line_address(self, tiny, design):
        with pytest.raises(ValueError, match="negative address"):
            replay_with(tiny, design, lines=negate_first)

    @pytest.mark.parametrize("column", ("parent_lines", "child_lines"))
    def test_negative_atfim_address(self, tiny, column):
        with pytest.raises(ValueError, match="negative address"):
            replay_with(tiny, Design.A_TFIM, **{column: negate_first})

    @pytest.mark.parametrize(
        "design, column",
        [(Design.BASELINE, "texels"), (Design.B_PIM, "texels"),
         (Design.S_TFIM, "texels"), (Design.A_TFIM, "child_counts")],
        ids=lambda value: value.value if isinstance(value, Design) else value,
    )
    def test_negative_texel_count(self, tiny, design, column):
        def negative(values):
            values[0] = -1
            return values

        with pytest.raises(ValueError, match="negative texel count"):
            replay_with(tiny, design, **{column: negative})

    def test_intact_frame_replays(self, tiny):
        for design in Design:
            replay_with(tiny, design)
