"""Set-associative texture caches with optional camera-angle tags.

Table I: each cluster has a 16 KB, 16-way L1 texture cache; a 128 KB,
16-way L2 texture cache is shared.  Lines are
:data:`~repro.texture.address.LINE_BYTES` (64) bytes.

For A-TFIM, each line additionally stores one camera angle, a 7-bit
code (section VII-E, :func:`repro.texture.lod.angle_codes`).  A lookup
then carries the requesting pixel's code: a tag match whose stored code
differs by more than the threshold's step count is treated as a miss
("recalculation"), which is the paper's performance/quality knob
(section V-C).

This module is the only one that knows how a line is placed
(:meth:`CacheConfig.placement`) and how a set's contents are stored: one
``OrderedDict`` per set, mapping each resident tag to its angle code
(:data:`~repro.texture.lod.NO_ANGLE` for a line without one), least
recently used first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.texture.address import LINE_BYTES
from repro.texture.lod import NO_ANGLE
from repro.units import Bytes


SetRun = Tuple[int, List[int], Optional[List[int]]]
"""One set's index, tags and their angle codes, or None for ``NO_ANGLE``
on every tag: what :meth:`TextureCache.write_back` takes."""


class CacheAccessResult(Enum):
    """Outcome of a cache lookup."""

    HIT = "hit"
    MISS = "miss"
    ANGLE_MISS = "angle_miss"
    """Tag matched but the stored camera angle differed by more than the
    threshold: the line must be recalculated in the HMC (A-TFIM only)."""


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one texture cache of
    :data:`~repro.texture.address.LINE_BYTES`-byte lines."""

    size_bytes: Bytes
    associativity: int = 16

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (LINE_BYTES * self.associativity) != 0:
            raise ValueError("size must be a whole number of sets")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // LINE_BYTES

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def placement(self, addresses: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The set and the tag of each address's line.

        Line ``n = a // LINE_BYTES`` sits in set ``n % num_sets`` with tag
        ``n // num_sets``.  For non-negative int64 addresses these equal
        python's integer results exactly.
        """
        tags, sets = np.divmod(addresses // LINE_BYTES, self.num_sets)
        return sets, tags


class TextureCache:
    """An LRU set-associative cache over byte addresses.

    The cache is *timeless*: it holds contents, angle tags and hit/miss
    counters, while timing is supplied by the resource servers in the
    cycle model.  A probe of the line containing address ``a`` reads
    the set :meth:`CacheConfig.placement` gives for the tag it gives.
    A tag match hits and becomes the set's most recent line; a miss
    fills the line, evicting the least recent one from a full set.  A
    line's angle tag is a code of :func:`~repro.texture.lod.angle_codes`,
    or :data:`~repro.texture.lod.NO_ANGLE`.  A tagged probe's tag match
    whose stored code differs from the probe's by more than the
    threshold's step count (always, for ``NO_ANGLE``) is an
    :attr:`CacheAccessResult.ANGLE_MISS`: the line stays, takes the new
    code and becomes the most recent (the recalculated parent texel
    replaces the stale one, section V-C).  A miss stores the probe's
    code.

    The performance model is its one user: the replay sessions decide
    the L1s' probes in array passes (:class:`repro.core.paths.L1Replay`)
    and probe the L2 inline, and write their outcomes back here
    (:meth:`contents`, :meth:`write_back`, :meth:`tables`).  The
    functional renderer keeps no cache: it decides A-TFIM's parent
    reuse per parent key (:func:`repro.texture.batch.reuse_producers`).

    Each set also logs its *cold fill*: the tags it filled while it
    still had a free way, in order, since the cache was last empty.
    :meth:`warm_start_inert` reads it.
    """

    def __init__(self, config: CacheConfig, name: str = "texcache") -> None:
        self.config = config
        self.name = name
        # One ordered dict per set: tag -> angle code, oldest first.
        self._sets: Dict[int, "OrderedDict[int, int]"] = {}
        # Per set, its cold fill (at most one tag per way).
        self._cold_fills: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0
        self.angle_misses = 0

    def contents(self, set_index: int) -> Tuple[List[int], List[int]]:
        """A set's resident tags and their angle codes, least recent
        first."""
        resident = self._sets.get(set_index)
        if not resident:
            return [], []
        return list(resident), list(resident.values())

    def write_back(self, contents: Iterable[SetRun],
                   cold_fills: Iterable[SetRun]) -> None:
        """Replace each set in ``contents`` with its tags, least recent
        first, and their codes, and extend each set's cold-fill log by
        its tags in ``cold_fills``, in fill order (their codes are not
        read)."""
        for set_index, tags, codes in contents:
            self._sets[set_index] = (
                OrderedDict.fromkeys(tags, NO_ANGLE) if codes is None
                else OrderedDict(zip(tags, codes))
            )
        for set_index, tags, _ in cold_fills:
            self._cold_fills.setdefault(set_index, []).extend(tags)

    def tables(self) -> Tuple[List["OrderedDict[int, int]"], List[List[int]]]:
        """Every set's tag -> angle-code dict and its cold-fill log,
        each indexed by set, for a session to probe and fill in place.

        Materialised up front so an inlined session's hot loop indexes a
        list instead of setdefault-ing a dict; pre-created empty sets and
        logs are invisible to cache semantics and to
        :meth:`warm_start_inert`.  A session appends a fill's tag to its
        set's log when the set has a free way, so a full set's fill pays
        nothing.
        """
        sets, fills = [], []
        for set_index in range(self.config.num_sets):
            entry = self._sets.get(set_index)
            if entry is None:
                entry = self._sets[set_index] = OrderedDict()
            sets.append(entry)
            log = self._cold_fills.get(set_index)
            if log is None:
                log = self._cold_fills[set_index] = []
            fills.append(log)
        return sets, fills

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
