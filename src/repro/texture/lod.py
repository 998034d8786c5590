"""Screen-space derivatives -> mip LOD, anisotropy and camera angle.

The rasterizer supplies each fragment with the derivatives of its texture
coordinates with respect to screen x and y (du/dx, dv/dx, du/dy, dv/dy),
in *texel* units of mip level 0.  From these we derive:

* the anisotropy ratio and direction (how stretched the pixel's footprint
  is in texture space -- the quantity anisotropic filtering exists for);
* the mip level-of-detail at which trilinear filtering samples;
* the pixel's *camera angle*: the angle between the surface normal and
  the view vector, which the paper uses both to determine the anisotropy
  and as the reuse criterion for A-TFIM's angle-threshold cache policy.

The math follows the standard EWA-style axis estimation used by hardware
anisotropic filtering (Mavridis & Papaioannou, the paper's [31]).
"""

from __future__ import annotations
from repro.units import Bits, Radians

import math
from dataclasses import dataclass

import numpy as np

from repro.texture import npmath


@dataclass(frozen=True)
class SampleFootprint:
    """The filtering footprint of one fragment in texture space."""

    lod: float
    """Mip level-of-detail used by the trilinear stage (anisotropic
    adjusted: computed from the *minor* axis so the higher-resolution mip
    is sampled along the major axis)."""

    anisotropy: float
    """Ratio of major to minor footprint axis, clamped to the hardware
    maximum (>= 1)."""

    probes: int
    """Number of anisotropic probes the hardware takes along the major
    axis (power-of-two level of anisotropy, e.g. 1, 2, 4, 8, 16)."""

    major_du: float
    major_dv: float
    """Unit direction (in level-0 texel units) of the major footprint
    axis, along which anisotropic probes are spread."""

    major_length: float = 0.0
    """Length of the major footprint axis in level-0 texel units."""


def _next_power_of_two(value: float) -> int:
    """Smallest power of two >= value (minimum 1)."""
    if value <= 1.0:
        return 1
    return 1 << math.ceil(npmath.log2(value))


def compute_footprint(
    dudx: float,
    dvdx: float,
    dudy: float,
    dvdy: float,
    max_anisotropy: int = 16,
    lod_bias: float = 0.0,
) -> SampleFootprint:
    """Derive the sampling footprint from texture-coordinate derivatives.

    ``lod_bias`` implements the scaled-resolution substitution described
    in DESIGN.md: rendering at 1/s linear scale multiplies the derivatives
    by s, and a bias of -log2(s) restores full-resolution mip selection.

    This is the scalar oracle of :func:`compute_footprint_batch`.  Its
    transcendentals (``hypot``, ``log2``) go through the canonical numpy
    kernels of :mod:`repro.texture.npmath`, so the batched twin is
    bit-identical lane for lane.
    """
    if max_anisotropy < 1:
        raise ValueError("max anisotropy must be >= 1")
    length_x = npmath.hypot(dudx, dvdx)
    length_y = npmath.hypot(dudy, dvdy)
    major = max(length_x, length_y)
    minor = min(length_x, length_y)
    tiny = 1e-12
    if major < tiny:
        # Degenerate footprint (e.g. texture sampled at a single point):
        # sample the base level isotropically.
        return SampleFootprint(
            lod=max(0.0, lod_bias),
            anisotropy=1.0,
            probes=1,
            major_du=0.0,
            major_dv=0.0,
            major_length=0.0,
        )
    minor = max(minor, tiny)
    anisotropy = min(major / minor, float(max_anisotropy))
    probes = _next_power_of_two(anisotropy)
    probes = min(probes, max_anisotropy)
    # LOD from the minor axis: the anisotropic filter compensates along
    # the major axis with multiple probes, so the mip level only needs to
    # match the footprint's narrow direction.
    effective_minor = major / anisotropy
    lod = npmath.log2(max(effective_minor, tiny)) + lod_bias
    lod = max(0.0, lod)
    if length_x >= length_y:
        axis_u, axis_v, axis_len = dudx, dvdx, length_x
    else:
        axis_u, axis_v, axis_len = dudy, dvdy, length_y
    scale = 2.0 ** lod_bias
    return SampleFootprint(
        lod=lod,
        anisotropy=anisotropy,
        probes=probes,
        major_du=axis_u / axis_len,
        major_dv=axis_v / axis_len,
        major_length=major * scale,
    )


def camera_angle_from_normal(nx: float, ny: float, nz: float,
                             vx: float, vy: float, vz: float) -> float:
    """Angle in radians between a surface normal and the view vector.

    0 means the surface faces the camera head-on (isotropic footprint);
    angles approaching pi/2 are grazing views, where anisotropic filtering
    matters most.  The paper stores this angle (quantised to 7 bits) in
    texture cache lines for the A-TFIM reuse test.

    The final arc cosine goes through :func:`repro.texture.npmath.acos`
    (the canonical ``np.arccos`` kernel), so the SoA fragment stream's
    batched ``np.arccos`` is bit-identical to this scalar oracle.
    """
    norm_n = math.sqrt(nx * nx + ny * ny + nz * nz)
    norm_v = math.sqrt(vx * vx + vy * vy + vz * vz)
    if norm_n == 0.0 or norm_v == 0.0:
        raise ValueError("zero-length vector")
    cosine = (nx * vx + ny * vy + nz * vz) / (norm_n * norm_v)
    cosine = min(1.0, max(-1.0, cosine))
    angle = npmath.acos(abs(cosine))
    return angle


@dataclass(frozen=True)
class FootprintBatch:
    """SoA form of :class:`SampleFootprint` for a fragment batch.

    Columns are parallel numpy arrays; ``footprint(i)`` materialises one
    row as a :class:`SampleFootprint`, for the request rows that
    :attr:`~repro.texture.requests.FragmentTrace.requests` builds.
    """

    lod: np.ndarray
    anisotropy: np.ndarray
    probes: np.ndarray
    major_du: np.ndarray
    major_dv: np.ndarray
    major_length: np.ndarray

    def __len__(self) -> int:
        return len(self.lod)

    def footprint(self, index: int) -> SampleFootprint:
        return SampleFootprint(
            lod=float(self.lod[index]),
            anisotropy=float(self.anisotropy[index]),
            probes=int(self.probes[index]),
            major_du=float(self.major_du[index]),
            major_dv=float(self.major_dv[index]),
            major_length=float(self.major_length[index]),
        )


def compute_footprint_batch(
    dudx: np.ndarray,
    dvdx: np.ndarray,
    dudy: np.ndarray,
    dvdy: np.ndarray,
    max_anisotropy: int = 16,
    lod_bias: float = 0.0,
) -> FootprintBatch:
    """Batched twin of :func:`compute_footprint` over derivative columns.

    Bit-identical to calling the scalar oracle per element: every branch
    is replicated with ``np.where`` over the same IEEE-754 expressions,
    and the transcendentals are the same canonical numpy kernels the
    scalar path calls (:mod:`repro.texture.npmath`).  Degenerate lanes
    (footprint below the ``tiny`` threshold) are computed on safe
    stand-in values and overwritten with the scalar path's constants.
    """
    if max_anisotropy < 1:
        raise ValueError("max anisotropy must be >= 1")
    length_x = npmath.hypot_batch(dudx, dvdx)
    length_y = npmath.hypot_batch(dudy, dvdy)
    major = np.maximum(length_x, length_y)
    minor = np.minimum(length_x, length_y)
    tiny = 1e-12
    degenerate = major < tiny
    major_safe = np.where(degenerate, 1.0, major)
    minor_safe = np.maximum(np.where(degenerate, 1.0, minor), tiny)
    anisotropy = np.minimum(major_safe / minor_safe, float(max_anisotropy))
    # _next_power_of_two, lane-wise: 1 for anisotropy <= 1, else
    # 1 << ceil(log2(anisotropy)); then clamped to the hardware maximum.
    exponents = np.ceil(npmath.log2_batch(anisotropy)).astype(np.int64)
    probes = np.where(anisotropy <= 1.0, 1, np.left_shift(1, exponents))
    probes = np.minimum(probes, max_anisotropy)
    effective_minor = major_safe / anisotropy
    lod = npmath.log2_batch(np.maximum(effective_minor, tiny)) + lod_bias
    lod = np.maximum(0.0, lod)
    use_x = length_x >= length_y
    axis_u = np.where(use_x, dudx, dudy)
    axis_v = np.where(use_x, dvdx, dvdy)
    axis_len = np.where(use_x, length_x, length_y)
    axis_len_safe = np.where(degenerate, 1.0, axis_len)
    scale = 2.0 ** lod_bias
    return FootprintBatch(
        lod=np.where(degenerate, max(0.0, lod_bias), lod),
        anisotropy=np.where(degenerate, 1.0, anisotropy),
        probes=np.where(degenerate, 1, probes),
        major_du=np.where(degenerate, 0.0, axis_u / axis_len_safe),
        major_dv=np.where(degenerate, 0.0, axis_v / axis_len_safe),
        major_length=np.where(degenerate, 0.0, major * scale),
    )


def quantize_angle(angle: Radians, bits: Bits = 7) -> float:
    """Quantise an angle in [0, pi/2] to ``bits`` bits, as the cache does.

    Section VII-E: 7 bits per cache line record the camera angle.  The
    stored range is [0, pi/2] (:func:`camera_angle` folds grazing
    directions into it), divided into ``2**bits - 1`` steps of
    90/(2**7 - 1) ~= 0.71 degrees, so the rounding error is at most half
    a step (~0.35 degrees) -- within the paper's ~1-degree budget.
    """
    if bits <= 0:
        raise ValueError("bit count must be positive")
    if angle < 0:
        raise ValueError("angle must be non-negative")
    levels = (1 << bits) - 1
    half_pi = math.pi / 2.0
    clamped = min(angle, half_pi)
    step = half_pi / levels
    return round(clamped / step) * step


def quantize_angles(angles: np.ndarray, bits: Bits = 7) -> np.ndarray:
    """:func:`quantize_angle` over an array, element for element.

    ``np.rint`` rounds half to even as python's ``round`` does, and the
    clamp, division and product are the same IEEE-754 operations, so
    every element equals the scalar result exactly.
    """
    if bits <= 0:
        raise ValueError("bit count must be positive")
    if bool(np.any(angles < 0)):
        raise ValueError("angle must be non-negative")
    levels = (1 << bits) - 1
    half_pi = math.pi / 2.0
    step = half_pi / levels
    return np.rint(np.minimum(angles, half_pi) / step) * step
