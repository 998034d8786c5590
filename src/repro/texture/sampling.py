"""Texture filtering math: bilinear, trilinear, anisotropic, and the
A-TFIM reordered (anisotropic-first) sequence.

Hardware model
--------------
A fragment's texture lookup proceeds (paper Fig. 3):

1. *bilinear*: the 2x2 texel neighbourhood around the sample point of one
   mip level, blended with the fractional weights of the sample position;
2. *trilinear*: the bilinear result of two adjacent mip levels, blended
   with the fractional LOD weight;
3. *anisotropic*: the average of ``N`` trilinear samples ("probes") spread
   along the major axis of the pixel's footprint in texture space.

Probe displacements are applied as *integer texel offsets* at each mip
level, so every probe reuses the same fractional bilinear weights.  This
is the property the paper's correctness argument (section V-B, Eq. 3)
relies on: with common weights, the three nested weighted averages form a
multilinear expression, and averaging over probes (anisotropic) commutes
with the bilinear/trilinear weighting.  A-TFIM exploits exactly that: the
HMC averages each *parent texel*'s probe-displaced *child texels* first,
and the GPU then runs ordinary bilinear/trilinear filtering over the
averaged parents -- equal to the conventional order in exact arithmetic.
In floating point the two orders round differently, so the results
differ in the last bits (at most 3.3e-16 on the fast set's frames).

Every sampling function can optionally record the texel coordinates it
touches, which is how the renderer produces the address traces consumed
by the cycle model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.texture.lod import SampleFootprint
from repro.texture.mipmap import MipmapChain

TexelCoord = Tuple[int, int, int]  # (level, x, y)


@dataclass
class SampleResult:
    """The outcome of one texture lookup."""

    color: np.ndarray
    texels: List[TexelCoord] = field(default_factory=list)
    """Every texel fetched from memory for this lookup (with duplicates
    already merged, as hardware coalescing would)."""


@dataclass(frozen=True)
class LevelBlend:
    """The pair of mip levels and the blend weight used by trilinear."""

    level_low: int
    level_high: int
    weight: float  # 0 -> all low level, 1 -> all high level

    @property
    def is_single_level(self) -> bool:
        return self.weight == 0.0 or self.level_low == self.level_high


def level_blend_for(chain: MipmapChain, lod: float) -> LevelBlend:
    """Select the mip levels and weight for a given LOD."""
    if lod <= 0.0:
        return LevelBlend(level_low=0, level_high=0, weight=0.0)
    max_level = chain.max_level
    if lod >= max_level:
        return LevelBlend(level_low=max_level, level_high=max_level, weight=0.0)
    low = int(math.floor(lod))
    weight = lod - low
    if weight == 0.0:
        return LevelBlend(level_low=low, level_high=low, weight=0.0)
    return LevelBlend(level_low=low, level_high=low + 1, weight=weight)


@dataclass(frozen=True)
class BilinearTap:
    """One of the four texels of a bilinear sample, with its weight."""

    x: int
    y: int
    weight: float


def bilinear_taps(width: int, height: int, u: float, v: float) -> List[BilinearTap]:
    """The 2x2 texel neighbourhood and weights at (u, v) of one level.

    ``u``/``v`` are in texel units of that level.  Wrap addressing is
    applied by the caller's texel fetch; taps report unwrapped integer
    coordinates so probe offsets can be added before wrapping.
    """
    su = u - 0.5
    sv = v - 0.5
    x0 = math.floor(su)
    y0 = math.floor(sv)
    fx = su - x0
    fy = sv - y0
    return [
        BilinearTap(x=x0, y=y0, weight=(1.0 - fx) * (1.0 - fy)),
        BilinearTap(x=x0 + 1, y=y0, weight=fx * (1.0 - fy)),
        BilinearTap(x=x0, y=y0 + 1, weight=(1.0 - fx) * fy),
        BilinearTap(x=x0 + 1, y=y0 + 1, weight=fx * fy),
    ]


@lru_cache(maxsize=4096)
def probe_offsets(
    footprint: SampleFootprint, level: int
) -> Tuple[Tuple[int, int], ...]:
    """Integer texel offsets of the anisotropic probes at ``level``.

    Probes are spread symmetrically along the major footprint axis; the
    spacing is the major-axis length at this mip level divided by the
    probe count, rounded to whole texels per probe.  Offsets may collide
    after rounding (grazing but short footprints); duplicates are kept so
    the probe average stays an unweighted mean of exactly N children,
    matching the fixed-function hardware datapath.

    Memoised (LRU): ``trilinear_sample`` asks for the same
    ``(footprint, level)`` offset list once per probe per mip level, so
    a 16x filter recomputed the identical list up to 32 times per
    lookup before caching.  ``SampleFootprint`` is frozen/hashable and
    the returned tuple is immutable, so sharing one instance is safe.
    """
    count = footprint.probes
    if count == 1:
        return ((0, 0),)
    length_at_level = footprint.major_length / (2.0 ** level)
    spacing = length_at_level / count
    offsets: List[Tuple[int, int]] = []
    for index in range(count):
        distance = (index - (count - 1) / 2.0) * spacing
        dx = round(distance * footprint.major_du)
        dy = round(distance * footprint.major_dv)
        offsets.append((dx, dy))
    return tuple(offsets)


def _level_uv(u: float, v: float, level: int) -> Tuple[float, float]:
    """Convert level-0 texel coordinates to the given level's units."""
    scale = 2.0 ** level
    return u / scale, v / scale


class _FetchRecorder:
    """Merges duplicate texel fetches, preserving first-touch order."""

    def __init__(self) -> None:
        self._seen: set = set()
        self._order: List[TexelCoord] = []

    def add(self, level: int, x: int, y: int, width: int, height: int) -> None:
        coord = (level, x % width, y % height)
        if coord not in self._seen:
            self._seen.add(coord)
            self._order.append(coord)

    @property
    def texels(self) -> List[TexelCoord]:
        """The deduplicated fetches in first-touch order.

        Returns the recorder's own list (no per-access copy); callers
        treat it as read-only.
        """
        return self._order


def bilinear_sample(
    chain: MipmapChain,
    level: int,
    u: float,
    v: float,
    offset: Tuple[int, int] = (0, 0),
    recorder: Optional[_FetchRecorder] = None,
) -> np.ndarray:
    """Bilinear filter at one mip level, with an integer probe offset."""
    mip = chain.level(level)
    lu, lv = _level_uv(u, v, mip.level)
    color = np.zeros(4, dtype=np.float64)
    for tap in bilinear_taps(mip.width, mip.height, lu, lv):
        x = tap.x + offset[0]
        y = tap.y + offset[1]
        if recorder is not None:
            recorder.add(mip.level, x, y, mip.width, mip.height)
        color += tap.weight * mip.data[y % mip.height, x % mip.width]
    return color


def trilinear_sample(
    chain: MipmapChain,
    lod: float,
    u: float,
    v: float,
    footprint: Optional[SampleFootprint] = None,
    probe_offset_index: Optional[int] = None,
    recorder: Optional[_FetchRecorder] = None,
) -> np.ndarray:
    """Trilinear filter: blend the bilinear results of two mip levels.

    When ``footprint``/``probe_offset_index`` are given, the sample is one
    anisotropic probe: each level's bilinear taps are displaced by that
    probe's integer offset at that level.
    """
    blend = level_blend_for(chain, lod)

    def offset_for(level: int) -> Tuple[int, int]:
        if footprint is None or probe_offset_index is None:
            return (0, 0)
        return probe_offsets(footprint, level)[probe_offset_index]

    low_color = bilinear_sample(
        chain, blend.level_low, u, v, offset_for(blend.level_low), recorder
    )
    if blend.is_single_level:
        return low_color
    high_color = bilinear_sample(
        chain, blend.level_high, u, v, offset_for(blend.level_high), recorder
    )
    return low_color * (1.0 - blend.weight) + high_color * blend.weight


def anisotropic_sample(
    chain: MipmapChain,
    footprint: SampleFootprint,
    u: float,
    v: float,
    recorder: Optional[_FetchRecorder] = None,
) -> np.ndarray:
    """Conventional-order anisotropic filter (paper Fig. 3 / Fig. 7A).

    Averages ``footprint.probes`` trilinear samples displaced along the
    major axis.  This is the reference that the reordered path must
    match to within rounding, and against which PSNR is measured.
    """
    total = np.zeros(4, dtype=np.float64)
    for index in range(footprint.probes):
        total += trilinear_sample(
            chain, footprint.lod, u, v,
            footprint=footprint, probe_offset_index=index, recorder=recorder,
        )
    return total / footprint.probes


def parent_texel_coords(
    chain: MipmapChain, lod: float, u: float, v: float
) -> List[Tuple[int, int, int, float]]:
    """The parent texels of a lookup: ``(level, x, y, weight)`` tuples.

    Parent texels are "the texels bilinear/trilinear filtering would fetch
    with anisotropic filtering disabled" (paper section V-A): 4 per mip
    level, 8 for a two-level trilinear blend.  Coordinates are unwrapped;
    weights combine the bilinear tap weight and the trilinear level
    weight, so ``sum(weight for all parents) == 1``.
    """
    blend = level_blend_for(chain, lod)
    parents: List[Tuple[int, int, int, float]] = []
    levels = [(blend.level_low, 1.0 - blend.weight)]
    if not blend.is_single_level:
        levels.append((blend.level_high, blend.weight))
    for level, level_weight in levels:
        mip = chain.level(level)
        lu, lv = _level_uv(u, v, mip.level)
        for tap in bilinear_taps(mip.width, mip.height, lu, lv):
            parents.append((mip.level, tap.x, tap.y, tap.weight * level_weight))
    return parents


def child_texel_coords(
    footprint: SampleFootprint, level: int, x: int, y: int
) -> List[Tuple[int, int]]:
    """The child texels of one parent texel: one per anisotropic probe.

    This is the expansion the Texel Generator performs in the HMC logic
    layer (paper Fig. 9): for a 4x filter, each parent spawns 4 children
    displaced along the major axis.
    """
    return [
        (x + dx, y + dy) for dx, dy in probe_offsets(footprint, level)
    ]


def filter_parent_texel(
    chain: MipmapChain,
    footprint: SampleFootprint,
    level: int,
    x: int,
    y: int,
    recorder: Optional[_FetchRecorder] = None,
) -> np.ndarray:
    """In-memory anisotropic filtering of one parent texel.

    The Combination Unit's job: average the parent's child texels.  The
    result is the "approximated parent texel" returned to the GPU.
    """
    mip = chain.level(level)
    total = np.zeros(4, dtype=np.float64)
    children = child_texel_coords(footprint, mip.level, x, y)
    for cx, cy in children:
        if recorder is not None:
            recorder.add(mip.level, cx, cy, mip.width, mip.height)
        total += mip.data[cy % mip.height, cx % mip.width]
    return total / len(children)


def anisotropic_first_sample(
    chain: MipmapChain,
    footprint: SampleFootprint,
    u: float,
    v: float,
    recorder: Optional[_FetchRecorder] = None,
) -> np.ndarray:
    """A-TFIM reordered filtering: anisotropic first, then bi/trilinear.

    Each parent texel is replaced by the probe-average of its child
    texels (computed "in memory"), then the ordinary bilinear/trilinear
    weighting runs over the averaged parents.  With common weights across
    probes this equals :func:`anisotropic_sample` in exact arithmetic;
    in floating point the sums round differently, and the property tests
    in ``tests/texture/test_reorder_correctness.py`` assert agreement to
    1e-12.
    """
    parents = parent_texel_coords(chain, footprint.lod, u, v)
    color = np.zeros(4, dtype=np.float64)
    for level, x, y, weight in parents:
        value = filter_parent_texel(chain, footprint, level, x, y, recorder)
        color += weight * value
    return color


class TextureSampler:
    """Convenience facade bundling a mip chain with trace recording."""

    def __init__(self, chain: MipmapChain) -> None:
        self.chain = chain

    def sample(
        self, footprint: SampleFootprint, u: float, v: float, record: bool = False
    ) -> SampleResult:
        """Reference (conventional-order) lookup."""
        recorder = _FetchRecorder() if record else None
        color = anisotropic_sample(self.chain, footprint, u, v, recorder)
        return SampleResult(
            color=color, texels=recorder.texels if recorder else []
        )

    def sample_isotropic(
        self, footprint: SampleFootprint, u: float, v: float, record: bool = False
    ) -> SampleResult:
        """Trilinear-only lookup (anisotropic filtering disabled).

        Used for Fig. 4 (aniso-disabled study) and as the lowest-quality
        reference in the threshold sweep.
        """
        recorder = _FetchRecorder() if record else None
        color = trilinear_sample(self.chain, footprint.lod, u, v, recorder=recorder)
        return SampleResult(
            color=color, texels=recorder.texels if recorder else []
        )
