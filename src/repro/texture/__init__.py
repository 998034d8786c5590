"""Texture subsystem substrate.

Everything needed to model texture mapping both *functionally* (producing
actual RGBA values, so rendered frames and PSNR are real) and
*architecturally* (producing texel addresses, cache behaviour and memory
traffic for the cycle model):

* :mod:`repro.texture.formats` -- texel formats and cache-line packing.
* :mod:`repro.texture.texture` -- the Texture object (image + metadata).
* :mod:`repro.texture.mipmap` -- mipmap chain construction and layout.
* :mod:`repro.texture.address` -- texel coordinate -> byte address
  map (tiled layout).
* :mod:`repro.texture.lod` -- screen-space derivatives -> mip LOD and
  anisotropy (level-of-anisotropy, footprint axes, camera angle).
* :mod:`repro.texture.sampling` -- bilinear / trilinear / anisotropic
  filtering math, in both the conventional order and A-TFIM's reordered
  (anisotropic-first) sequence.
* :mod:`repro.texture.cache` -- set-associative texture caches with the
  optional per-line camera-angle tag of A-TFIM.
* :mod:`repro.texture.requests` -- trace record types exchanged between
  the renderer and the cycle model.
"""

from repro.texture.formats import TexelFormat, RGBA8
from repro.texture.texture import Texture
from repro.texture.mipmap import MipmapChain, build_mipmaps
from repro.texture.address import TexelAddressMap
from repro.texture.lod import SampleFootprint, compute_footprint
from repro.texture.sampling import (
    TextureSampler,
    bilinear_sample,
    trilinear_sample,
    anisotropic_sample,
    anisotropic_first_sample,
)
from repro.texture.cache import CacheConfig, TextureCache, CacheAccessResult
from repro.texture.requests import TextureRequest

__all__ = [
    "TexelFormat",
    "RGBA8",
    "Texture",
    "MipmapChain",
    "build_mipmaps",
    "TexelAddressMap",
    "SampleFootprint",
    "compute_footprint",
    "TextureSampler",
    "bilinear_sample",
    "trilinear_sample",
    "anisotropic_sample",
    "anisotropic_first_sample",
    "CacheConfig",
    "TextureCache",
    "CacheAccessResult",
    "TextureRequest",
]
