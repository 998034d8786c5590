"""Set-associative texture caches with optional camera-angle tags.

Table I: each cluster has a 16 KB, 16-way L1 texture cache; a 128 KB,
16-way L2 texture cache is shared.  Lines are 64 bytes.

For A-TFIM, each line additionally stores one camera angle (7 bits,
section VII-E).  A lookup then carries the requesting pixel's camera
angle: a tag match whose stored angle differs by more than the configured
threshold is treated as a miss ("recalculation"), which is the paper's
performance/quality knob (section V-C).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from repro.texture.lod import quantize_angle
from repro.units import BITS_PER_BYTE, Bits, Bytes, Radians


class CacheAccessResult(Enum):
    """Outcome of a cache lookup."""

    HIT = "hit"
    MISS = "miss"
    ANGLE_MISS = "angle_miss"
    """Tag matched but the stored camera angle differed by more than the
    threshold: the line must be recalculated in the HMC (A-TFIM only)."""

    @property
    def is_hit(self) -> bool:
        return self is CacheAccessResult.HIT


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one texture cache."""

    size_bytes: Bytes
    line_bytes: Bytes = 64
    associativity: int = 16
    angle_bits: Bits = 7

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError("size must be a whole number of sets")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @property
    def angle_storage_bytes(self) -> Bytes:
        """Extra storage for per-line camera angles (section VII-E).

        Rounded up to whole bytes: storage is allocated in bytes, and a
        fractional byte count would leak into downstream overhead sums.
        """
        return Bytes(
            math.ceil(self.num_lines * self.angle_bits / BITS_PER_BYTE)
        )


@dataclass
class _Line:
    tag: int
    angle: Optional[float] = None


class TextureCache:
    """An LRU set-associative cache over byte addresses.

    The cache is *timeless*: it tracks contents and hit/miss outcomes,
    while timing is supplied by the resource servers in the cycle model.
    This separation keeps the cache reusable by both the functional
    renderer (for the quality study) and the performance model.

    Each set also logs its *cold fill*: the tags it filled while it
    still had a free way, in order, since the cache was last empty.
    :meth:`warm_start_inert` reads it.
    """

    def __init__(self, config: CacheConfig, name: str = "texcache") -> None:
        self.config = config
        self.name = name
        # One ordered dict per set: key = tag, order = LRU (oldest first).
        self._sets: Dict[int, "OrderedDict[int, _Line]"] = {}
        # Per set, its cold fill (at most one tag per way).
        self._cold_fills: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0
        self.angle_misses = 0

    def _locate(self, address: int) -> tuple[int, int]:
        line_index = address // self.config.line_bytes
        set_index = line_index % self.config.num_sets
        tag = line_index // self.config.num_sets
        return set_index, tag

    def lookup(
        self,
        address: int,
        angle: Optional[float] = None,
        angle_threshold: Optional[Radians] = None,
    ) -> CacheAccessResult:
        """Access the line containing ``address``; fill on miss.

        Without angle arguments this is an ordinary cache access.  With
        both ``angle`` and ``angle_threshold`` given, a tag hit whose
        stored (quantised) angle differs from the request's quantised
        angle by more than the threshold counts as
        :attr:`CacheAccessResult.ANGLE_MISS`; the line is refilled with
        the new angle (the recalculated parent texel replaces the stale
        one, per section V-C).
        """
        if address < 0:
            raise ValueError("negative address")
        set_index, tag = self._locate(address)
        cache_set = self._sets.setdefault(set_index, OrderedDict())
        stored_angle = self._quantized(angle)

        line = cache_set.get(tag)
        if line is not None:
            if angle is not None and angle_threshold is not None:
                if line.angle is None or abs(line.angle - stored_angle) > angle_threshold:
                    line.angle = stored_angle
                    cache_set.move_to_end(tag)
                    self.angle_misses += 1
                    return CacheAccessResult.ANGLE_MISS
            cache_set.move_to_end(tag)
            self.hits += 1
            return CacheAccessResult.HIT

        self._fill(set_index, cache_set, tag, stored_angle)
        self.misses += 1
        return CacheAccessResult.MISS

    def _quantized(self, angle: Optional[float]) -> Optional[float]:
        if angle is None:
            return None
        return quantize_angle(angle, self.config.angle_bits)

    def _fill(
        self, set_index: int, cache_set: "OrderedDict[int, _Line]", tag: int,
        angle: Optional[float],
    ) -> None:
        if len(cache_set) >= self.config.associativity:
            cache_set.popitem(last=False)  # evict LRU
        else:
            self._cold_fills.setdefault(set_index, []).append(tag)
        cache_set[tag] = _Line(tag=tag, angle=angle)

    def contains(self, address: int) -> bool:
        """Presence probe that does not disturb LRU state or counters."""
        set_index, tag = self._locate(address)
        cache_set = self._sets.get(set_index)
        return cache_set is not None and tag in cache_set

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.angle_misses

    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return (self.misses + self.angle_misses) / self.accesses

    def warm_start_inert(self) -> bool:
        """Whether the accesses made since the cache was empty, replayed
        from its current contents, would repeat every outcome.

        Exact for LRU.  Take a set with cold fill t_0, t_1, ... and
        contents W, oldest first, and replay its accesses from W.  While
        the outcomes repeat, each fill evicts the oldest warm line, so
        the set meets t_k with W[k:] still resident, and t_k misses
        again iff it is not in W[k:]; every other access touches a line
        both runs hold alike.  Once its last warm line is evicted, the
        set holds the same lines as in the cold run, in the same order,
        with the same angle tags.  A set that ended with a free way
        still holds t_0, so it is never inert.
        """
        for set_index, fills in self._cold_fills.items():
            position = {
                tag: index for index, tag in enumerate(self._sets[set_index])
            }
            for k, tag in enumerate(fills):
                if position.get(tag, -1) >= k:
                    return False
        return True

    def reset(self) -> None:
        self._sets.clear()
        self._cold_fills.clear()
        self.hits = 0
        self.misses = 0
        self.angle_misses = 0

    def reset_counters(self) -> None:
        """Zero the hit/miss statistics but keep the cached contents.

        Used between a frame's cold replay and its replay from the warm
        caches, which ``simulate_frame`` runs only where
        :meth:`warm_start_inert` is false, and between a sequence's
        frames, which keep the caches the last one left.  The cold-fill
        log is kept too: it still describes the accesses since the
        cache was empty.
        """
        self.hits = 0
        self.misses = 0
        self.angle_misses = 0
