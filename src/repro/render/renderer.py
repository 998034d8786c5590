"""Whole-frame rendering under each design's sampling policy.

The renderer produces two artefacts from one rasterization pass:

* an actual RGBA image, filtered under a chosen :class:`SamplingMode` --
  this is what the quality study (Fig. 15/16) compares via PSNR;
* a :class:`~repro.texture.requests.FragmentTrace`, the frame's texture
  requests as columns, which the shader reads here and the
  cycle-approximate performance model replays.

Sampling modes:

``EXACT``
    Conventional bilinear -> trilinear -> anisotropic order (the baseline,
    B-PIM and S-TFIM all produce this image; they differ only in *where*
    the arithmetic runs, not in the result).
``REORDERED``
    A-TFIM's anisotropic-first order with per-request recalculation
    (equivalent to an angle threshold of zero before quantisation).  It
    equals ``EXACT`` in exact arithmetic (paper section V-B), but the
    two orders round differently, so pixels differ in the last bits:
    by at most 3.3e-16 on the fast set.
``ATFIM``
    A-TFIM with the camera-angle reuse policy: a parent texel's filtered
    value is reused whenever the requesting pixel's angle is within the
    threshold of the angle it was last recalculated under, otherwise
    recalculated.  This is the approximation whose quality the threshold
    controls.
``ISOTROPIC``
    Anisotropic filtering disabled (trilinear only) -- the Fig. 4 study
    and the paper's lowest-quality reference point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from repro import obs
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import Rasterizer, RasterStats
from repro.render.scene import Scene
from repro.texture.requests import FragmentTrace


class SamplingMode(Enum):
    """Which filtering policy produces the frame's colors."""

    EXACT = "exact"
    REORDERED = "reordered"
    ATFIM = "atfim"
    ISOTROPIC = "isotropic"


@dataclass
class RenderOutput:
    """Everything one rendered frame yields."""

    image: np.ndarray
    trace: FragmentTrace
    raster_stats: RasterStats
    framebuffer: Framebuffer
    parent_recalculations: int = 0
    parent_reuses: int = 0


class Renderer:
    """Renders a scene under one sampling mode."""

    def __init__(
        self,
        width: int,
        height: int,
        tile_size: int = 16,
        max_anisotropy: int = 16,
        lod_bias: float = 0.0,
    ) -> None:
        self.width = width
        self.height = height
        self.rasterizer = Rasterizer(
            tile_size=tile_size, max_anisotropy=max_anisotropy, lod_bias=lod_bias
        )

    def trace_only(self, scene: Scene, camera: Camera) -> RenderOutput:
        """Rasterize without shading: fast path for the cycle model.

        The returned image is the cleared framebuffer; only the trace and
        raster statistics are meaningful.
        """
        framebuffer = Framebuffer(self.width, self.height)
        with obs.span(
            "render.trace_only", width=self.width, height=self.height
        ):
            trace = self.rasterizer.rasterize_scene(scene, camera, framebuffer)
        return RenderOutput(
            image=framebuffer.rgb_image(),
            trace=trace,
            raster_stats=self.rasterizer.stats,
            framebuffer=framebuffer,
        )

    def render(
        self,
        scene: Scene,
        camera: Camera,
        mode: SamplingMode = SamplingMode.EXACT,
        angle_threshold: float = 0.0,
    ) -> RenderOutput:
        """Rasterize and shade every visible fragment.

        ``angle_threshold`` (radians) only applies to
        :attr:`SamplingMode.ATFIM`.  The shaded colours are written in
        submission order, so an overdrawn pixel shows its last fragment,
        the nearest one early-Z let through.
        """
        if mode is SamplingMode.ATFIM and angle_threshold < 0:
            raise ValueError("threshold must be non-negative")
        with obs.span(
            "render.render",
            mode=mode.value,
            width=self.width,
            height=self.height,
        ):
            framebuffer = Framebuffer(self.width, self.height)
            with obs.span("render.rasterize"):
                trace = self.rasterizer.rasterize_scene(
                    scene, camera, framebuffer
                )
            with obs.span("render.shade", fragments=len(trace)):
                colors, reuses, recalculations = self._shade_batch(
                    scene, trace, mode, angle_threshold
                )
                framebuffer.write_colors(trace.pixel_x, trace.pixel_y, colors)

        return RenderOutput(
            image=framebuffer.rgb_image(),
            trace=trace,
            raster_stats=self.rasterizer.stats,
            framebuffer=framebuffer,
            parent_recalculations=recalculations,
            parent_reuses=reuses,
        )

    def _shade_batch(
        self,
        scene: Scene,
        trace: FragmentTrace,
        mode: SamplingMode,
        angle_threshold: float,
    ) -> Tuple[np.ndarray, int, int]:
        """Shade every request through the batched kernels, per texture.

        Fragments are grouped by texture (each group shares one mip
        chain), sliced from the trace's columns in submission order,
        filtered as arrays, and scattered back.  A-TFIM's parent keys
        never span textures, so deciding reuse per group, in request
        order, is exact.  Returns the colors and, for
        :attr:`SamplingMode.ATFIM`, the parent reuse and recalculation
        counts (zero otherwise).  With ``REPRO_CHECK_INVARIANTS=1`` each
        group is also validated against the scalar oracle at drain time
        (``batch-fetch-parity``: bit-identical colors or recalculated
        parents, equal texel fetch sets).
        """
        from repro.analysis.invariants import checks_enabled
        from repro.texture.batch import (
            BatchSampler,
            RequestBatch,
            anisotropic_first_batch,
        )

        colors = np.zeros((len(trace), 4), dtype=np.float64)
        reuses = recalculations = 0
        for texture_id in np.unique(trace.texture_id).tolist():
            indices = np.nonzero(trace.texture_id == texture_id)[0]
            chain = scene.mipmap_chain(texture_id)
            sampler = BatchSampler(chain)
            batch = RequestBatch.from_trace(trace, indices)
            producers = None
            if mode is SamplingMode.EXACT:
                colors[indices] = sampler.sample_exact(batch)
            elif mode is SamplingMode.ISOTROPIC:
                colors[indices] = sampler.sample_isotropic(batch)
            else:
                angles = None
                if mode is SamplingMode.ATFIM:
                    angles = trace.camera_angle[indices]
                colors[indices], producers = anisotropic_first_batch(
                    chain, batch, angles, angle_threshold
                )
                if angles is not None:
                    recalculated = int(np.count_nonzero(
                        producers == np.arange(len(producers))
                    ))
                    recalculations += recalculated
                    reuses += len(producers) - recalculated
            if checks_enabled():
                sampler.verify_against_scalar(
                    batch,
                    isotropic=mode is SamplingMode.ISOTROPIC,
                    producers=producers,
                )
        return colors, reuses, recalculations
