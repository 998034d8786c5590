"""The Table II workload registry.

Each paper benchmark (game x resolution) maps to a procedural workload:
a scene style, texture sizing, anisotropy cap, and the simulated frame
size.  Paper resolutions are kept as metadata; simulation renders at
1/``DEFAULT_SIM_SCALE`` linear scale, so Python-side fragment counts
stay tractable.  Anisotropy ratios do not depend on resolution, so the
mip LOD bias is a fixed sharpening ``DETAIL_BIAS`` rather than a
scale-coupled one; caches, memory bandwidth and the angle threshold are
recalibrated for the miniature frame instead (DESIGN.md section 5,
"Miniature-frame calibration").

The per-game knobs implement the qualitative differences the paper's
results show: higher-resolution configurations use higher anisotropy
caps and larger textures (they "demand higher anisotropic level and
texel details", section VII-A), terrain-style scenes are the most
anisotropy-bound, and chamber-style scenes the least.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.designs import Design, DesignConfig
from repro.gpu.config import GPUConfig
from repro.memory.gddr5 import Gddr5Config
from repro.memory.hmc import HmcConfig
from repro.render.renderer import Renderer
from repro.render.scene import Scene
from repro.texture.address import LINE_BYTES
from repro.texture.cache import CacheConfig
from repro.texture.requests import FragmentTrace
from repro.workloads.scenes import BuiltScene, SceneStyle, build_scene

DEFAULT_SIM_SCALE = 8
"""Linear downscale factor between paper resolution and simulated frame."""

DETAIL_BIAS = -1.5
"""Sharpening mip LOD bias, as games apply for crisper surfaces.  More
negative = finer mip levels = more unique texels per pixel, which is
what gives texture fetches their ~60 % share of memory traffic
(Fig. 2).  Kept independent of ``sim_scale``: anisotropy ratios are
resolution-invariant, and a scale-coupled bias of ``-log2(s)`` would
make each simulated pixel stride ``s`` texels and destroy all cache
locality (see DESIGN.md calibration notes)."""


@dataclass(frozen=True)
class GameWorkload:
    """One Table II row: a game at a paper resolution."""

    name: str
    game: str
    paper_width: int
    paper_height: int
    library: str          # "OpenGL" or "D3D" (Table II metadata)
    engine: str           # 3D engine name (Table II metadata)
    style: SceneStyle
    texture_size: int
    max_anisotropy: int
    uv_tiling: float
    seed: int
    sim_scale: int = DEFAULT_SIM_SCALE

    def __post_init__(self) -> None:
        if self.paper_width <= 0 or self.paper_height <= 0:
            raise ValueError("paper resolution must be positive")
        if self.sim_scale < 1:
            raise ValueError("sim scale must be >= 1")
        if self.max_anisotropy < 1:
            raise ValueError("max anisotropy must be >= 1")

    @property
    def sim_width(self) -> int:
        return max(16, self.paper_width // self.sim_scale)

    @property
    def sim_height(self) -> int:
        return max(16, self.paper_height // self.sim_scale)

    @property
    def resolution_label(self) -> str:
        return f"{self.paper_width}x{self.paper_height}"

    def build(self) -> BuiltScene:
        """Build the workload's scene + camera (deterministic)."""
        return build_scene(
            self.style,
            texture_size=self.texture_size,
            seed=self.seed,
            uv_tiling=self.uv_tiling,
        )

    @property
    def sim_tile_size(self) -> int:
        """Table I's 16x16 tile, scaled with the simulated resolution so
        tile-to-cluster balance matches the full-resolution frame."""
        return max(2, 16 // self.sim_scale)

    def make_renderer(self) -> Renderer:
        return Renderer(
            width=self.sim_width,
            height=self.sim_height,
            tile_size=self.sim_tile_size,
            max_anisotropy=self.max_anisotropy,
            lod_bias=DETAIL_BIAS,
        )

    def trace(self) -> Tuple[Scene, FragmentTrace]:
        """Rasterize one frame; return the scene and its request trace."""
        built = self.build()
        renderer = self.make_renderer()
        output = renderer.trace_only(built.scene, built.camera)
        return built.scene, output.trace

    def gpu_config(self) -> GPUConfig:
        """Table I's GPU with texture caches scaled to the sim frame.

        A frame simulated at 1/s linear scale touches roughly 1/s^2 of
        the texel working set of the full-resolution frame; full-size
        caches would swallow the entire miniature working set and report
        zero steady-state texture traffic, which no real frame of these
        games exhibits (Fig. 2 puts texture at ~60 % of traffic).  The
        caches are instead sized against the simulated frame's own
        request count, calibrated so the baseline's steady-state fills
        per request land in the band the paper's measured S-TFIM traffic
        ratios imply (~0.3-0.5 line fills per texture request).
        """
        sim_pixels = self.sim_width * self.sim_height
        l2_assoc = 8
        l2_lines = max(8 * l2_assoc, sim_pixels // 24)
        l2_sets = max(2, l2_lines // l2_assoc)
        l1_assoc = 4
        l1_lines = max(2 * l1_assoc, l2_lines // 8)
        l1_sets = max(2, l1_lines // l1_assoc)
        return GPUConfig(
            l1_cache=CacheConfig(
                size_bytes=l1_sets * l1_assoc * LINE_BYTES,
                associativity=l1_assoc,
            ),
            l2_cache=CacheConfig(
                size_bytes=l2_sets * l2_assoc * LINE_BYTES,
                associativity=l2_assoc,
            ),
        )

    @property
    def bandwidth_scale(self) -> float:
        """Memory bandwidth divisor for the miniature frame.

        The simulated frame issues ~1/sim_scale^2 of the full frame's
        requests; leaving memory bandwidth at full spec would make every
        design compute-bound, contradicting the paper's premise that
        texel fetching saturates memory (section I).  Dividing bandwidth
        by sim_scale/2.67 restores the paper's utilization regime while the
        *ratios* between GDDR5 (128 GB/s), HMC external (320 GB/s) and
        HMC internal (512 GB/s) -- the quantities the designs exploit --
        are preserved exactly.
        """
        return self.sim_scale / 2.67

    def gddr5_config(self) -> Gddr5Config:
        return Gddr5Config(
            bandwidth_gb_per_s=128.0 / self.bandwidth_scale,
        )

    def hmc_config(self) -> HmcConfig:
        """Table I's HMC (320 GB/s links, 512 GB/s over 32 vaults), scaled
        for this workload like every other bandwidth."""
        return HmcConfig(
            external_bandwidth_gb_per_s=320.0 / self.bandwidth_scale,
            internal_bandwidth_gb_per_s=512.0 / self.bandwidth_scale,
        )

    def design_config(self, design: Design, **overrides) -> DesignConfig:
        """A :class:`DesignConfig` for this workload at a design point.

        Applies the workload's scaled GPU caches, scaled memory
        bandwidth, and the angle-threshold scale compensation (see
        :class:`~repro.core.designs.DesignConfig`).  Keyword overrides set
        the other fields; an explicit ``hmc`` replaces the scaled cube.
        """
        overrides.setdefault("angle_threshold_scale", float(self.sim_scale))
        overrides.setdefault("gddr5", self.gddr5_config())
        overrides.setdefault("hmc", self.hmc_config())
        return DesignConfig(design=design, gpu=self.gpu_config(), **overrides)


def _doom3(width: int, height: int, aniso: int, texture: int,
           seed: int) -> GameWorkload:
    return GameWorkload(
        name=f"doom3-{width}x{height}",
        game="doom3",
        paper_width=width,
        paper_height=height,
        library="OpenGL",
        engine="Id Tech 4",
        style=SceneStyle.CORRIDOR,
        texture_size=texture,
        max_anisotropy=aniso,
        uv_tiling=20.0,
        seed=seed,
    )


def _fear(width: int, height: int, aniso: int, texture: int,
          seed: int) -> GameWorkload:
    return GameWorkload(
        name=f"fear-{width}x{height}",
        game="fear",
        paper_width=width,
        paper_height=height,
        library="D3D",
        engine="Jupiter EX",
        style=SceneStyle.ARENA,
        texture_size=texture,
        max_anisotropy=aniso,
        uv_tiling=14.0,
        seed=seed,
    )


def _hl2(width: int, height: int, aniso: int, texture: int,
         seed: int) -> GameWorkload:
    return GameWorkload(
        name=f"hl2-{width}x{height}",
        game="hl2",
        paper_width=width,
        paper_height=height,
        library="D3D",
        engine="Source Engine",
        style=SceneStyle.TERRAIN,
        texture_size=texture,
        max_anisotropy=aniso,
        uv_tiling=48.0,
        seed=seed,
    )


WORKLOADS: List[GameWorkload] = [
    # Doom 3: indoor corridors, three resolutions (Table II).  Texture
    # assets are fixed per game (as shipped game content is); what
    # changes with resolution is the screen sampling density and the
    # anisotropy level players enable at that quality setting.
    _doom3(1280, 1024, aniso=16, texture=256, seed=11),
    _doom3(640, 480, aniso=8, texture=256, seed=12),
    _doom3(320, 240, aniso=4, texture=256, seed=13),
    # FEAR: indoor arenas, three resolutions.
    _fear(1280, 1024, aniso=16, texture=256, seed=21),
    _fear(640, 480, aniso=8, texture=256, seed=22),
    _fear(320, 240, aniso=4, texture=256, seed=23),
    # Half-Life 2: outdoor terrain, two resolutions.
    _hl2(1280, 1024, aniso=16, texture=256, seed=31),
    _hl2(640, 480, aniso=8, texture=256, seed=32),
    # Chronicles of Riddick: dark chambers, one resolution.
    GameWorkload(
        name="riddick-640x480",
        game="riddick",
        paper_width=640,
        paper_height=480,
        library="OpenGL",
        engine="In-House Engine",
        style=SceneStyle.CHAMBER,
        texture_size=256,
        max_anisotropy=8,
        uv_tiling=10.0,
        seed=41,
    ),
    # Wolfenstein: mixed indoor, one resolution.
    GameWorkload(
        name="wolfenstein-640x480",
        game="wolfenstein",
        paper_width=640,
        paper_height=480,
        library="D3D",
        engine="Id Tech 4",
        style=SceneStyle.CORRIDOR,
        texture_size=256,
        max_anisotropy=8,
        uv_tiling=16.0,
        seed=51,
    ),
]
"""The ten game x resolution benchmark points of Table II."""

_BY_NAME: Dict[str, GameWorkload] = {workload.name: workload for workload in WORKLOADS}


def workload_names() -> List[str]:
    return [workload.name for workload in WORKLOADS]


def workload_by_name(name: str) -> GameWorkload:
    if name not in _BY_NAME:
        raise KeyError(f"unknown workload {name!r}; known: {workload_names()}")
    return _BY_NAME[name]
