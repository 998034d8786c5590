"""Functional software renderer.

This subpackage renders actual images (so PSNR comparisons in the quality
study are real) and, as a side effect of rasterization, produces the
columnar texture request traces that the shader reads and that drive
the cycle-approximate performance model.

* :mod:`repro.render.camera` -- pinhole camera, view/projection matrices.
* :mod:`repro.render.scene` -- scenes of textured triangles.
* :mod:`repro.render.raster` -- perspective-correct triangle
  rasterization with analytic texture-coordinate derivatives.
* :mod:`repro.render.framebuffer` -- z-buffered RGBA framebuffer.
* :mod:`repro.render.renderer` -- whole-frame rendering under each
  design's sampling policy (exact, isotropic-only, A-TFIM approximate).
"""

from repro.render.camera import Camera
from repro.render.scene import Scene, TexturedTriangle
from repro.render.framebuffer import Framebuffer
from repro.render.renderer import RenderOutput, Renderer, SamplingMode

__all__ = [
    "Camera",
    "Scene",
    "TexturedTriangle",
    "Framebuffer",
    "Renderer",
    "RenderOutput",
    "SamplingMode",
]
