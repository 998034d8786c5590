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

from repro.units import BITS_PER_BYTE, Bits, Bytes


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

    The cache is *timeless*: it holds contents, angle tags and hit/miss
    counters, while timing is supplied by the resource servers in the
    cycle model.  A probe of the line containing address ``a`` reads
    set ``(a // line_bytes) % num_sets`` for tag
    ``(a // line_bytes) // num_sets``.  A tag match hits and becomes
    the set's most recent line; a miss fills the line, evicting the
    least recent one from a full set.  With an angle tag and a
    threshold, a tag match whose stored (quantised) angle is None or
    differs from the probe's quantised angle by more than the threshold
    is an :attr:`CacheAccessResult.ANGLE_MISS`: the line stays, takes
    the new angle and becomes the most recent (the recalculated parent
    texel replaces the stale one, section V-C).  A miss stores the
    probe's angle, or None.

    The performance model is its one user: the replay sessions decide
    the L1s' probes in array passes (:class:`repro.core.paths.L1Replay`)
    and probe the L2 inline, and write their outcomes back here.  The
    functional renderer keeps no cache: it decides A-TFIM's parent
    reuse per parent key (:func:`repro.texture.batch.reuse_producers`).

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
