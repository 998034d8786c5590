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

Rasterization does not depend on the sampling mode, and Fig. 15 renders
each view six times (exact, then A-TFIM at five thresholds).  So a
:class:`Renderer` keeps the last view it rasterized -- its trace, a copy
of its raster statistics and a copy of its depth buffer -- and
:meth:`Renderer.render` and :meth:`Renderer.trace_only` of the same view
start from that copy instead of rasterizing again.  The view is keyed
on every value rasterization reads (:meth:`Renderer._view_key`), not on
the identity of the mutable scene and camera, so a camera moved in
place or a triangle added rasterizes again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Tuple

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


@dataclass(frozen=True)
class _RasterizedView:
    """A renderer's last rasterization: its key and what it produced.

    ``stats`` and ``depth`` are private copies; callers get copies of
    them.  The trace's columns are read-only, so callers share it.
    """

    key: bytes
    trace: FragmentTrace
    stats: RasterStats
    depth: np.ndarray


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
        self._view: Optional[_RasterizedView] = None

    def trace_only(self, scene: Scene, camera: Camera) -> RenderOutput:
        """Rasterize without shading: fast path for the cycle model.

        The returned image is the cleared framebuffer; only the trace and
        raster statistics are meaningful.  Like :meth:`render`, it starts
        from a copy of the last rasterized view when the view is the same.
        """
        with obs.span(
            "render.trace_only", width=self.width, height=self.height
        ):
            framebuffer, trace, stats = self._rasterize(scene, camera)
        return RenderOutput(
            image=framebuffer.rgb_image(),
            trace=trace,
            raster_stats=stats,
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
        the nearest one early-Z let through.  A view this renderer
        rasterized last (in any mode, or by :meth:`trace_only`) starts
        from a copy of that rasterization; the ``render.rasterize`` span
        records ``reused``.  The output is the same either way, and it
        owns its framebuffer and statistics.
        """
        if mode is SamplingMode.ATFIM and not angle_threshold >= 0:
            raise ValueError("threshold must be non-negative")
        with obs.span(
            "render.render",
            mode=mode.value,
            width=self.width,
            height=self.height,
        ):
            with obs.span("render.rasterize"):
                framebuffer, trace, stats = self._rasterize(scene, camera)
            with obs.span("render.shade", fragments=len(trace)):
                colors, reuses, recalculations = self._shade_batch(
                    scene, trace, mode, angle_threshold
                )
                framebuffer.write_colors(trace.pixel_x, trace.pixel_y, colors)

        return RenderOutput(
            image=framebuffer.rgb_image(),
            trace=trace,
            raster_stats=stats,
            framebuffer=framebuffer,
            parent_recalculations=recalculations,
            parent_reuses=reuses,
        )

    def _rasterize(
        self, scene: Scene, camera: Camera
    ) -> Tuple[Framebuffer, FragmentTrace, RasterStats]:
        """A fresh framebuffer holding the view's depth, its trace and its
        raster statistics: from the last view when the key matches, else
        from :meth:`Rasterizer.rasterize_scene`, which becomes the last
        view.  Annotates the current span with ``reused``."""
        key = self._view_key(scene, camera)
        view = self._view
        reused = view is not None and view.key == key
        obs.annotate(reused=reused)
        framebuffer = Framebuffer(self.width, self.height)
        if reused:
            np.copyto(framebuffer.depth, view.depth)
        else:
            trace = self.rasterizer.rasterize_scene(scene, camera, framebuffer)
            view = self._view = _RasterizedView(
                key=key,
                trace=trace,
                stats=replace(self.rasterizer.stats),
                depth=framebuffer.depth.copy(),
            )
        return framebuffer, view.trace, replace(view.stats)

    def _view_key(self, scene: Scene, camera: Camera) -> bytes:
        """The bytes of every value rasterization reads.

        Each triangle's vertices, uvs and texture id with that texture's
        size; the camera's position, target, up, field of view and clip
        planes; the frame size; and the rasterizer's tile size, maximum
        anisotropy and LOD bias.  Equal bytes mean equal inputs, bit for
        bit, so the rasterizations are bit-identical too.
        """
        raster = self.rasterizer
        parts = [
            np.array(
                [self.width, self.height, raster.tile_size,
                 raster.max_anisotropy],
                dtype=np.int64,
            ).tobytes(),
            np.array(
                [raster.lod_bias, camera.fov_y, camera.near, camera.far],
                dtype=np.float64,
            ).tobytes(),
        ]
        for vector in (camera.position, camera.target, camera.up):
            parts.append(np.asarray(vector, dtype=np.float64).tobytes())
        for triangle in scene.triangles:
            texture = scene.textures[triangle.texture_id]
            for values in (triangle.vertices, triangle.uvs):
                parts.append(np.asarray(values, dtype=np.float64).tobytes())
            parts.append(np.array(
                [triangle.texture_id, texture.width, texture.height],
                dtype=np.int64,
            ).tobytes())
        return b"".join(parts)

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
