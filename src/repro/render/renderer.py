"""Whole-frame rendering under each design's sampling policy.

The renderer produces two artefacts from one rasterization pass:

* an actual RGBA image, filtered under a chosen :class:`SamplingMode` --
  this is what the quality study (Fig. 15/16) compares via PSNR;
* a :class:`~repro.texture.requests.FragmentTrace` of per-fragment
  texture requests, which the cycle-approximate performance model replays.

Sampling modes:

``EXACT``
    Conventional bilinear -> trilinear -> anisotropic order (the baseline,
    B-PIM and S-TFIM all produce this image; they differ only in *where*
    the arithmetic runs, not in the result).
``REORDERED``
    A-TFIM's anisotropic-first order with per-request recalculation
    (equivalent to an angle threshold of zero before quantisation); this
    must match ``EXACT`` bit for bit (paper section V-B).
``ATFIM``
    A-TFIM with the camera-angle reuse policy: parent texels cached in an
    angle-tagged store are reused whenever the requesting pixel's angle is
    within the threshold, otherwise recalculated.  This is the
    approximation whose quality the threshold controls.
``ISOTROPIC``
    Anisotropic filtering disabled (trilinear only) -- the Fig. 4 study
    and the paper's lowest-quality reference point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import Rasterizer, RasterStats
from repro.render.scene import Scene
from repro.texture.lod import quantize_angle
from repro.texture.requests import FragmentTrace, TextureRequest
from repro.texture.sampling import (
    anisotropic_first_sample,
    filter_parent_texel,
    parent_texel_coords,
)


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


class _AngleTaggedParentStore:
    """Functional model of A-TFIM's angle-tagged parent-texel reuse.

    Keys are parent texel identities ``(texture, level, x, y)``; values
    are the filtered parent value and the (quantised) camera angle it was
    filtered under.  A lookup whose angle differs by more than the
    threshold recalculates, exactly mirroring the architectural cache
    policy in :mod:`repro.texture.cache` -- but holding *values*, because
    the functional path needs the possibly-stale colors to measure their
    quality impact.
    """

    def __init__(self, threshold: float, angle_bits: int = 7) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self.angle_bits = angle_bits
        self._store: Dict[Tuple[int, int, int, int], Tuple[np.ndarray, float]] = {}
        self.reuses = 0
        self.recalculations = 0

    def lookup(
        self, key: Tuple[int, int, int, int], angle: float
    ) -> Optional[np.ndarray]:
        quantised = quantize_angle(angle, self.angle_bits)
        entry = self._store.get(key)
        if entry is None:
            return None
        value, stored_angle = entry
        if abs(stored_angle - quantised) <= self.threshold:
            self.reuses += 1
            return value
        return None

    def store(self, key: Tuple[int, int, int, int], angle: float,
              value: np.ndarray) -> None:
        quantised = quantize_angle(angle, self.angle_bits)
        self._store[key] = (value, quantised)
        self.recalculations += 1


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
            requests = self.rasterizer.trace_requests(
                scene, camera, framebuffer
            )
        trace = FragmentTrace(
            width=self.width,
            height=self.height,
            requests=requests,
            tile_size=self.rasterizer.tile_size,
        )
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
        :attr:`SamplingMode.ATFIM`.
        """
        with obs.span(
            "render.render",
            mode=mode.value,
            width=self.width,
            height=self.height,
        ):
            framebuffer = Framebuffer(self.width, self.height)
            with obs.span("render.rasterize"):
                shaded = self.rasterizer.rasterize_scene(
                    scene, camera, framebuffer
                )

            parent_store: Optional[_AngleTaggedParentStore] = None
            if mode is SamplingMode.ATFIM:
                parent_store = _AngleTaggedParentStore(threshold=angle_threshold)

            requests: List[TextureRequest] = [request for _, request in shaded]
            with obs.span("render.shade", fragments=len(shaded)):
                if mode in (SamplingMode.EXACT, SamplingMode.ISOTROPIC):
                    colors = self._shade_batch(scene, requests, mode)
                    for index, (fragment, _request) in enumerate(shaded):
                        framebuffer.write(
                            fragment.x, fragment.y, fragment.depth, colors[index]
                        )
                else:
                    for fragment, request in shaded:
                        chain = scene.mipmap_chain(request.texture_id)
                        color = self._shade(chain, request, mode, parent_store)
                        framebuffer.write(
                            fragment.x, fragment.y, fragment.depth, color
                        )

        trace = FragmentTrace(
            width=self.width,
            height=self.height,
            requests=requests,
            tile_size=self.rasterizer.tile_size,
        )
        output = RenderOutput(
            image=framebuffer.rgb_image(),
            trace=trace,
            raster_stats=self.rasterizer.stats,
            framebuffer=framebuffer,
        )
        if parent_store is not None:
            output.parent_recalculations = parent_store.recalculations
            output.parent_reuses = parent_store.reuses
        return output

    def _shade_batch(
        self,
        scene: Scene,
        requests: List[TextureRequest],
        mode: SamplingMode,
    ) -> np.ndarray:
        """Shade every request through the batched kernels, per texture.

        Fragments are grouped by texture (each group shares one mip
        chain), filtered as arrays, and scattered back into submission
        order.  With ``REPRO_CHECK_INVARIANTS=1`` each group is also
        validated against the scalar oracle at drain time
        (``batch-fetch-parity``: bit-identical colors, equal texel
        fetch sets).
        """
        from repro.analysis.invariants import checks_enabled
        from repro.texture.batch import BatchSampler, RequestBatch

        isotropic = mode is SamplingMode.ISOTROPIC
        colors = np.zeros((len(requests), 4), dtype=np.float64)
        by_texture: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            by_texture.setdefault(request.texture_id, []).append(index)
        for texture_id, indices in by_texture.items():
            chain = scene.mipmap_chain(texture_id)
            sampler = BatchSampler(chain)
            batch = RequestBatch.from_requests([requests[i] for i in indices])
            if isotropic:
                colors[indices] = sampler.sample_isotropic(batch)
            else:
                colors[indices] = sampler.sample_exact(batch)
            if checks_enabled():
                sampler.verify_against_scalar(batch, isotropic=isotropic)
        return colors

    def _shade(
        self,
        chain,
        request: TextureRequest,
        mode: SamplingMode,
        parent_store: Optional[_AngleTaggedParentStore],
    ) -> np.ndarray:
        """Per-request shading of the REORDERED and ATFIM modes."""
        footprint = request.footprint
        if mode is SamplingMode.REORDERED:
            return anisotropic_first_sample(chain, footprint, request.u, request.v)
        if mode is SamplingMode.ATFIM:
            return self._shade_atfim(chain, request, parent_store)
        raise ValueError(f"unknown sampling mode {mode}")

    def _shade_atfim(
        self,
        chain,
        request: TextureRequest,
        parent_store: _AngleTaggedParentStore,
    ) -> np.ndarray:
        """A-TFIM shading with angle-threshold parent reuse.

        For each parent texel: reuse the stored value when the angle
        matches within the threshold; otherwise recalculate it from its
        child texels under *this* request's footprint and store it.
        """
        footprint = request.footprint
        parents = parent_texel_coords(chain, footprint.lod, request.u, request.v)
        color = np.zeros(4, dtype=np.float64)
        for level, x, y, weight in parents:
            mip = chain.level(level)
            key = (request.texture_id, level, x % mip.width, y % mip.height)
            value = parent_store.lookup(key, request.camera_angle)
            if value is None:
                value = filter_parent_texel(chain, footprint, level, x, y)
                parent_store.store(key, request.camera_angle, value)
            color += weight * value
        return color
