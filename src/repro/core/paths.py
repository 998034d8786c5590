"""Shared machinery for the designs' texture paths.

A *texture path* answers one question for the pipeline model: given a
texture request issued by cluster ``c`` at cycle ``t``, when does the
filtered texture result arrive back at the shader, and what traffic and
unit activity did serving it cost?  The four designs differ exactly and
only in their texture paths.
"""

from __future__ import annotations

import abc
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.designs import DesignConfig
from repro.core.expansion import ExpandedFrame
from repro.gpu.config import GPUConfig
from repro.gpu.texunit import TextureUnit, TextureUnitActivity
from repro.memory.traffic import TrafficMeter
from repro.sim.resources import BandwidthServer, RequestQueue
from repro.texture.batch import _later_recalculations, _stable_key_order
from repro.texture.cache import TextureCache, _Line
from repro.units import Cycles, Ops


_Columns = TypeVar("_Columns")


class ReadMergeWindow:
    """LRU window of recently issued line fetches, for merge coalescing.

    Memory controllers merge a read that matches a request already in
    their queue into one DRAM burst; the logic-layer texture pipelines
    additionally hold recently fetched texel lines in staging registers
    (the paper's Child Texel Consolidation buffer performs exactly this
    merge for child texels, section V-D).  The window maps a line address
    to the ready-time of its in-flight/just-completed fetch; a hit reuses
    that fetch instead of re-occupying a DRAM bank.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lines: "OrderedDict[int, float]" = OrderedDict()
        self.merged = 0

    def lookup(self, line: int) -> Optional[float]:
        """Ready time of a mergeable fetch of ``line``, or None."""
        if line in self._lines:
            self._lines.move_to_end(line)
            self.merged += 1
            return self._lines[line]
        return None

    def insert(self, line: int, ready: float) -> None:
        self._lines[line] = ready
        self._lines.move_to_end(line)
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)

    def reset(self) -> None:
        self._lines.clear()
        self.merged = 0


class MergeWindowReplay:
    """:meth:`ReadMergeWindow.lookup`, then ``fetch`` and
    :meth:`ReadMergeWindow.insert` on a miss, over a list of windows.

    ``read(index, arrival, line)`` returns the ready time of ``line``
    through ``windows[index]``: a merge is ready no earlier than
    ``arrival``; a miss is ``fetch(arrival, line)``, the session's vault
    read, and enters the window.  The windows' LRU dicts are mutated in
    place; their merged counts fold locally until :meth:`flush`.
    """

    __slots__ = ("read", "flush")

    def __init__(self, windows: Sequence[ReadMergeWindow],
                 fetch: Callable[[float, int], float]) -> None:
        tables = [window._lines for window in windows]
        capacities = [window.capacity for window in windows]
        merged = [window.merged for window in windows]

        def read(index: int, arrival: float, line: int) -> float:
            table = tables[index]
            ready = table.get(line)
            if ready is not None:
                table.move_to_end(line)
                merged[index] += 1
                return ready if ready > arrival else arrival
            ready = fetch(arrival, line)
            table[line] = ready
            if len(table) > capacities[index]:
                table.popitem(last=False)
            return ready

        def flush() -> None:
            for window, count in zip(windows, merged):
                window.merged = count

        self.read = read
        self.flush = flush


class QueueReplay:
    """:meth:`~repro.sim.resources.RequestQueue.enqueue` over a list of
    queues: ``enqueue(index, arrival)`` returns the admission cycle.

    Each queue's clock, entry count and stall cycles fold locally until
    :meth:`flush`.
    """

    __slots__ = ("enqueue", "flush")

    def __init__(self, queues: Sequence[RequestQueue]) -> None:
        # The two quotients enqueue divides out on every call.
        lead = [float(queue.capacity - 1) / queue.drain_rate
                for queue in queues]
        step = [1.0 / queue.drain_rate for queue in queues]
        free_at = [queue._occupancy_free_at for queue in queues]
        enqueued = [queue.total_enqueued for queue in queues]
        stalls = [queue.total_stall_cycles for queue in queues]

        def enqueue(index: int, arrival: float) -> float:
            free = free_at[index]
            earliest = free - lead[index]
            admitted = earliest if earliest > arrival else arrival
            free_at[index] = (admitted if admitted > free else free) + step[index]
            enqueued[index] += 1
            stalls[index] += admitted - arrival
            return admitted

        def flush() -> None:
            for index, queue in enumerate(queues):
                queue._occupancy_free_at = Cycles(free_at[index])
                queue.total_enqueued = enqueued[index]
                queue.total_stall_cycles = Cycles(stalls[index])

        self.enqueue = enqueue
        self.flush = flush


@dataclass
class CacheHierarchyStats:
    """Aggregated L1/L2 outcomes for one frame."""

    l1_hits: int = 0
    l1_misses: int = 0
    l1_angle_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0

    @property
    def l1_accesses(self) -> int:
        return self.l1_hits + self.l1_misses + self.l1_angle_misses

    @property
    def l1_hit_rate(self) -> float:
        if self.l1_accesses == 0:
            return 0.0
        return self.l1_hits / self.l1_accesses


class CacheHierarchy:
    """Per-cluster L1s over a shared L2, with an L2 port resource.

    Timing: an L1 hit is free (folded into the texture unit's pipeline
    depth); an L1 miss filled from L2 pays the L2 latency and occupies the
    L2 port for one line; an L2 miss goes to memory.
    """

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        gpu = config.gpu
        self.config = config
        self.l1 = [
            TextureCache(gpu.l1_cache, name=f"l1.{cluster}")
            for cluster in range(gpu.num_clusters)
        ]
        self.l2 = TextureCache(gpu.l2_cache, name="l2")
        self.l2_port = BandwidthServer(
            name="l2.port",
            # The L2 is banked: it can deliver several lines per cycle in
            # aggregate (4 here), matching the fill bandwidth a 16-cluster
            # GPU needs so the shared L2 is not an artificial bottleneck.
            bytes_per_cycle=4.0 * gpu.l2_cache.line_bytes,
            latency=gpu.l2_latency_cycles,
        )
        self.line_bytes = gpu.l1_cache.line_bytes

    def stats(self) -> CacheHierarchyStats:
        aggregated = CacheHierarchyStats()
        for cache in self.l1:
            aggregated.l1_hits += cache.hits
            aggregated.l1_misses += cache.misses
            aggregated.l1_angle_misses += cache.angle_misses
        aggregated.l2_hits = self.l2.hits
        aggregated.l2_misses = self.l2.misses + self.l2.angle_misses
        return aggregated

    def warm_start_inert(self) -> bool:
        """Whether every L1 and the L2 would repeat each outcome of the
        accesses since they were empty, replayed from their contents.

        Per cache that is :meth:`TextureCache.warm_start_inert`.  The
        hierarchy needs nothing more: the L2 sees the L1s' misses, so
        while the L1 outcomes repeat, so does the L2's access stream.
        """
        return all(cache.warm_start_inert() for cache in self.l1 + [self.l2])

    def reset_for_measurement(self) -> None:
        """Zero counters and the L2 port clock; keep cache contents."""
        for cache in self.l1:
            cache.reset_counters()
        self.l2.reset_counters()
        self.l2_port.reset()


@dataclass
class PathActivity:
    """Energy-relevant activity of one texture path for one frame."""

    gpu_texture: TextureUnitActivity = field(default_factory=TextureUnitActivity)
    memory_texture: TextureUnitActivity = field(default_factory=TextureUnitActivity)
    l1_accesses: int = 0
    l2_accesses: int = 0
    parent_recalculations: int = 0
    parent_reuses: int = 0
    child_texels_generated: int = 0
    child_lines_fetched: int = 0


def check_frame(texel_counts: np.ndarray, *addresses: np.ndarray) -> None:
    """The live units' and memories' per-access checks, hoisted to one
    vectorised check per frame: a texture unit refuses a negative texel
    count, a memory a negative address."""
    if bool(np.any(texel_counts < 0)):
        raise ValueError("negative texel count")
    for column in addresses:
        if bool(np.any(column < 0)):
            raise ValueError("negative address")


L1_HIT, L1_FILL, L1_ANGLE_MISS = 0, 1, 2
""":class:`L1Replay`'s outcome codes, ``TextureCache.lookup``'s results:
a hit, a miss (which fills the line) and a tag hit whose angle tag is
stale (which refreshes it)."""


class GpuReplayColumns:
    """Per-trace columns for a replay session that inlines the GPU side.

    Request ``i`` puts ``texels[i]`` texels through its cluster's texture
    unit (one address op and one filter op each) and probes the caches
    for ``lines[offsets[i]:offsets[i + 1]]``; ``requests[k]`` is row
    ``k``'s request.  :class:`L1Replay` reads ``lines`` whole when a
    session opens.  The rows that miss L1 then probe the L2 inline, one
    scalar at a time, where list indexing beats ndarray item access:
    :meth:`missed` gives each request's such rows, and a session takes
    their ``l2_set``, ``l2_tag`` and ``addresses`` as python lists.
    Those three replicate ``TextureCache._locate`` (int64 floor division
    and modulus agree exactly with python ints for non-negative
    addresses, which :func:`check_frame` ensures once per frame) and are
    object arrays of python ints, computed once per distinct line and
    sharing one int per distinct value: a trace touches few distinct
    lines many times (doom3-640x480's 38,312 parents sit in 858 lines),
    so the lists cost little more than their pointers.
    """

    __slots__ = ("texels", "offsets", "lines", "requests", "addresses",
                 "l2_set", "l2_tag", "l2_assoc")

    def __init__(self, gpu: GPUConfig, texels: np.ndarray,
                 offsets: np.ndarray, lines: np.ndarray) -> None:
        check_frame(texels, lines)
        self.texels = texels.tolist()
        self.offsets = offsets
        self.lines = lines
        self.requests = np.repeat(
            np.arange(len(texels), dtype=np.int32), np.diff(offsets)
        )
        distinct, inverse = np.unique(lines, return_inverse=True)

        def per_line(values: np.ndarray) -> np.ndarray:
            return values.astype(object)[inverse]

        self.addresses = per_line(distinct)
        l2 = gpu.l2_cache
        l2_lines = distinct // l2.line_bytes
        self.l2_set = per_line(l2_lines % l2.num_sets)
        self.l2_tag = per_line(l2_lines // l2.num_sets)
        self.l2_assoc = l2.associativity

    def missed(self, outcomes: np.ndarray) -> Tuple[List[int], np.ndarray]:
        """Each request's offsets into the rows whose L1 outcome is not
        a hit, and those rows, in row order."""
        rows = np.flatnonzero(outcomes != L1_HIT)
        return np.searchsorted(rows, self.offsets).tolist(), rows


def check_served(served: bytearray) -> None:
    """Refuse a replay that did not serve every request exactly once.

    A session counts each request it serves in ``served``, one byte per
    request.  Its L1 outcomes were decided for every request, each
    cluster's in index order, so a replay that skipped or repeated one
    would write back caches that no service order produces.
    """
    if served.count(1) != len(served):
        raise RuntimeError("a replay session must serve every request once")


class L1Replay:
    """The per-cluster L1s' replay form: every probe of one replay,
    decided in array passes when its session opens.

    A cluster's L1 sees only that cluster's probes, in the order the
    cluster serves its requests, so no outcome depends on timing.
    ``clusters[k]`` indexes the cache in ``caches`` that probe ``k``
    reads and ``lines[k]`` is its byte address; each cluster's probes
    are given in its service order.  ``angles[k]`` is the probe's angle
    tag, quantised as the cache stores it, or NaN where the probe
    carries none; without ``angles`` no probe does.

    Each (cluster, set) stream is prefixed with that set's contents,
    oldest first: an empty set that met those lines in that order would
    hold them so, and the cold-fill log counts the prefix as filled
    before.  LRU fills on every miss, so a set holds the most recently
    used lines, at most ``associativity``.  A probe therefore hits iff
    its line was seen before in the stream and fewer than
    ``associativity`` distinct lines came between: the LRU stack
    distance, decided in windowed rounds (:func:`_lru_hits`).  A miss is
    a cold fill iff fewer than ``associativity`` distinct lines came
    before it, and the final contents are each stream's last
    ``associativity`` distinct lines, by last use.

    An angle tag changes only at a fill or a stale hit, and each keeps
    the line resident, so a line's *residency* -- a fill (or a prefix
    entry) and the hits that follow it -- is one chain: a tagged hit is
    stale iff the tag stored at the residency's last fill or stale hit
    differs from its own by more than ``threshold``, or the stored tag
    is None (NaN, which no comparison keeps).  That is the rule
    :func:`~repro.texture.batch.reuse_producers` decides, and the same
    kernel decides it here.  Every comparison narrows ``(below, above)``
    as the sessions' inline L2 comparisons do.

    ``outcomes[k]`` is probe ``k``'s outcome code and
    ``counts[code][c]`` counts cache ``c``'s probes with that outcome;
    :meth:`flush` writes the counters, contents, angle tags and
    cold-fill logs back to the live caches.
    """

    __slots__ = ("outcomes", "counts", "below", "above", "_caches",
                 "_contents", "_cold_fills")

    def __init__(self, caches: Sequence[TextureCache], clusters: np.ndarray,
                 lines: np.ndarray, angles: Optional[np.ndarray] = None,
                 threshold: float = 0.0) -> None:
        self._caches = caches
        self.below, self.above = 0.0, math.inf
        count, num_caches = len(lines), len(caches)
        self.outcomes = np.zeros(count, dtype=np.int8)
        self.counts = np.zeros((3, num_caches), dtype=np.int64)
        self._contents: List[Tuple[int, int, List[int], Any]] = []
        self._cold_fills: List[Tuple[int, int, List[int], Any]] = []
        if count == 0:
            return
        config = caches[0].config
        num_sets, ways = config.num_sets, config.associativity
        line_index = lines // config.line_bytes
        streams = clusters * num_sets + line_index % num_sets
        tags = line_index // num_sets
        del line_index

        # Prefix every touched stream with its set's contents, oldest first.
        prefix_streams: List[int] = []
        prefix_tags: List[int] = []
        prefix_angles: List[float] = []
        touched = np.bincount(streams, minlength=num_caches * num_sets)
        for stream in np.flatnonzero(touched).tolist():
            cluster, set_index = divmod(stream, num_sets)
            resident = caches[cluster]._sets.get(set_index)
            if resident:
                prefix_streams += [stream] * len(resident)
                prefix_tags += resident
                if angles is not None:
                    prefix_angles += [
                        math.nan if line.angle is None else line.angle
                        for line in resident.values()
                    ]
        prefix = len(prefix_tags)
        total = prefix + count
        # Stream positions: each stream's prefix, then its probes in order.
        stream = np.concatenate(
            [np.array(prefix_streams, dtype=np.int64), streams]
        )
        order = _stable_key_order(stream).astype(np.int32)
        stream = stream[order]
        tag = np.concatenate([np.array(prefix_tags, dtype=np.int64), tags])
        tag = tag[order]
        del streams, tags, touched

        # Each position's previous and next use of its line in its stream.
        low = int(tag.min())
        span = int(tag.max()) - low + 1
        if (num_caches * num_sets * span) >> 62:
            by_line = np.lexsort((tag, stream))
            ranked = np.stack([stream[by_line], tag[by_line]])
            same = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).all(axis=0))
        else:
            key = stream * span + (tag - low)
            by_line = _stable_key_order(key).astype(np.int32)
            ranked = key[by_line]
            same = np.flatnonzero(ranked[1:] == ranked[:-1])
            del key
        del ranked
        earlier, later = by_line[same], by_line[same + 1]
        previous = np.full(total, -1, dtype=np.int32)
        previous[later] = earlier
        following = np.full(total, total, dtype=np.int32)
        following[earlier] = later
        del same, earlier, later

        hit = _lru_hits(previous, following, ways)
        # Cold fills: first uses that found a free way.
        firsts = np.flatnonzero(previous < 0)
        first_streams = stream[firsts]
        rank = np.arange(len(firsts)) - np.searchsorted(first_streams,
                                                        first_streams)
        cold = firsts[(rank < ways) & (order[firsts] >= prefix)]
        # Final contents: each stream's last ``ways`` lines, by last use.
        last = np.flatnonzero(following == total)
        last_streams = stream[last]
        rank = np.searchsorted(last_streams, last_streams, side="right")
        resident = last[rank - np.arange(len(last)) <= ways]
        del previous, following, firsts, first_streams, last, last_streams, rank

        outcome = np.where(hit, L1_HIT, L1_FILL).astype(np.int8)
        stored = None
        if angles is not None:
            angle = np.concatenate(
                [np.array(prefix_angles, dtype=np.float64), angles]
            )[order]
            self._decide_angles(by_line, hit, angle, threshold, outcome)
            stored = angle[resident]
            del angle
        del by_line, hit

        where = np.empty(total, dtype=np.int32)
        where[order] = np.arange(total, dtype=np.int32)
        self.outcomes = outcome[where[prefix:]]
        del where, order, outcome
        self.counts = np.bincount(
            clusters * 3 + self.outcomes, minlength=3 * num_caches
        ).reshape(num_caches, 3).T
        self._cold_fills = _per_stream(stream[cold], tag[cold], None, num_sets)
        self._contents = _per_stream(stream[resident], tag[resident], stored,
                                     num_sets)

    def _decide_angles(self, by_line: np.ndarray, hit: np.ndarray,
                       angle: np.ndarray, threshold: float,
                       outcome: np.ndarray) -> None:
        """Mark the stale hits in ``outcome``, narrow the interval, and
        leave in ``angle`` each position's stored tag after its use."""
        # A residency's lookups: its fill (or prefix entry), then its
        # tagged hits; untagged hits compare nothing and store nothing.
        looks = ~hit[by_line] | ~np.isnan(angle[by_line])
        lookups = by_line[looks]
        opens = ~hit[lookups]
        recalculated = opens.copy()
        chain = angle[lookups]
        _later_recalculations(chain, recalculated, threshold)
        outcome[lookups[recalculated & ~opens]] = L1_ANGLE_MISS
        latest = np.maximum.accumulate(
            np.where(recalculated, np.arange(len(lookups)), 0)
        )
        inner = np.flatnonzero(~opens)
        difference = np.abs(chain[latest[inner - 1]] - chain[inner])
        exceeded = recalculated[inner]
        within = difference[~exceeded]
        if len(within):
            self.below = float(within.max())
        compared = difference[exceeded]
        compared = compared[~np.isnan(compared)]
        if len(compared):
            self.above = float(compared.min())
        # A line's group opens with a lookup, so each use's latest
        # lookup so far is in its group.
        angle[by_line] = chain[latest[np.cumsum(looks) - 1]]

    def flush(self) -> None:
        """Write the replay's counters, contents and cold fills back."""
        caches = self._caches
        hits, misses, angle_misses = self.counts.tolist()
        for index, cache in enumerate(caches):
            cache.hits += hits[index]
            cache.misses += misses[index]
            cache.angle_misses += angle_misses[index]
        for cluster, set_index, tags, stored in self._contents:
            cache_set = caches[cluster]._sets[set_index] = OrderedDict()
            if stored is None:
                for tag in tags:
                    cache_set[tag] = _Line(tag)
            else:
                for tag, angle in zip(tags, stored):
                    cache_set[tag] = _Line(tag, angle)
        for cluster, set_index, tags, _ in self._cold_fills:
            caches[cluster]._cold_fills.setdefault(set_index, []).extend(tags)


def _lru_hits(previous: np.ndarray, following: np.ndarray,
              ways: int) -> np.ndarray:
    """Which positions hit an LRU set of ``ways`` lines.

    Positions are laid out stream by stream; ``previous[j]`` is the last
    earlier position of ``j``'s line in its stream (-1 for none) and
    ``following[j]`` the next later one (the length for none).  ``j``
    hits iff fewer than ``ways`` distinct lines were used strictly
    between ``previous[j]`` and ``j``: the positions ``k`` there whose
    ``following[k]`` lies beyond ``j``.  A gap shorter than ``ways``
    hits outright.  Each round, every undecided position counts the
    next ``ways`` positions back, and is decided once it has counted
    ``ways`` lines (a miss) or passed its previous use (a hit).
    """
    position = np.arange(len(previous), dtype=np.int32)
    reused = previous >= 0
    gap = position - previous
    hit = reused & (gap <= ways)
    pending = np.flatnonzero(reused & (gap > ways)).astype(np.int32)
    del position, reused, gap
    steps = np.arange(1, ways + 1, dtype=np.int32)
    floor = previous[pending]
    end = pending
    distinct = np.zeros(len(pending), dtype=np.int32)
    while len(pending):
        window = end[:, None] - steps
        counted = following[np.maximum(window, 0)] > pending[:, None]
        counted &= window > floor[:, None]
        distinct += counted.sum(axis=1, dtype=np.int32)
        del window, counted
        evicted = distinct >= ways
        scanned = end - ways <= floor + 1
        hit[pending[scanned & ~evicted]] = True
        open_ = ~(evicted | scanned)
        pending, floor, distinct = pending[open_], floor[open_], distinct[open_]
        end = end[open_] - ways
    return hit


def _per_stream(
    stream: np.ndarray, tags: np.ndarray, angles: Optional[np.ndarray],
    num_sets: int,
) -> List[Tuple[int, int, List[int], Any]]:
    """``(cluster, set, tags, angles)`` per run of one stream in
    ``stream``, the angles as a list with None for NaN, or None."""
    begins = np.flatnonzero(np.diff(stream, prepend=-1)).tolist()
    tag_list = tags.tolist()
    if angles is not None:
        stored = angles.astype(object)
        stored[np.isnan(angles)] = None
        angle_list = stored.tolist()
    runs = []
    for start, end in zip(begins, begins[1:] + [len(tag_list)]):
        cluster, set_index = divmod(int(stream[start]), num_sets)
        runs.append((cluster, set_index, tag_list[start:end],
                     None if angles is None else angle_list[start:end]))
    return runs


def _set_tables(cache: TextureCache) -> Tuple[List[OrderedDict], List[List[int]]]:
    """Every set's OrderedDict of ``cache`` and its cold-fill log, each
    indexed by set.

    Materialised up front so an inlined session's hot loop indexes a
    list instead of setdefault-ing a dict; pre-created empty sets and
    logs are invisible to cache semantics and to
    :meth:`TextureCache.warm_start_inert`.  A session appends a fill's
    tag to its set's log where ``TextureCache._fill`` does: when the
    set has a free way, so a full set's fill pays nothing.
    """
    sets_dict, fills_dict = cache._sets, cache._cold_fills
    sets, fills = [], []
    for set_index in range(cache.config.num_sets):
        entry = sets_dict.get(set_index)
        if entry is None:
            entry = sets_dict[set_index] = OrderedDict()
        sets.append(entry)
        log = fills_dict.get(set_index)
        if log is None:
            log = fills_dict[set_index] = []
        fills.append(log)
    return sets, fills


class UnitReplayState:
    """Texture units' mutable state, unpacked for an inlined replay session.

    Seeded from the live units, per unit: the address and filter stages'
    next-issue clocks and busy cycles, and the requests and address and
    filter ops the session adds.  ``generate_addresses(unit, arrival,
    n)`` and ``filter_texels(unit, arrival, n)`` are
    :class:`~repro.gpu.texunit.TextureUnit`'s two methods over these
    lists, operation for operation; a session counts a request with
    ``requests[unit] += 1``.  One state serves the GPU's per-cluster
    units, S-TFIM's MTUs and A-TFIM's logic-layer Texel Generator and
    Combination Unit.  A session mutates the lists in service order (so
    float accumulators reproduce the scalar ``+=`` sequence bit for bit)
    and calls :meth:`flush` from its ``finish``.
    """

    def __init__(self, units: Sequence[TextureUnit]) -> None:
        self.units = units
        addr_rate = [unit.address_stage.ops_per_cycle for unit in units]
        addr_depth = [unit.address_stage.pipeline_depth for unit in units]
        filt_rate = [unit.filter_stage.ops_per_cycle for unit in units]
        filt_depth = [unit.filter_stage.pipeline_depth for unit in units]
        addr_next = self.addr_next = [
            unit.address_stage._next_issue for unit in units
        ]
        addr_busy = self.addr_busy = [
            unit.address_stage.busy_cycles for unit in units
        ]
        filt_next = self.filt_next = [
            unit.filter_stage._next_issue for unit in units
        ]
        filt_busy = self.filt_busy = [
            unit.filter_stage.busy_cycles for unit in units
        ]
        addr_ops = self.addr_ops = [0] * len(units)
        filt_ops = self.filt_ops = [0] * len(units)
        self.requests = [0] * len(units)

        def generate_addresses(unit: int, arrival: float,
                               num_texels: int) -> float:
            addr_ops[unit] += num_texels
            if not num_texels:
                return arrival
            previous = addr_next[unit]
            start = previous if previous > arrival else arrival
            occupancy = num_texels / addr_rate[unit]
            done = start + occupancy
            addr_next[unit] = done
            addr_busy[unit] += occupancy
            return done + addr_depth[unit]

        def filter_texels(unit: int, arrival: float, num_texels: int) -> float:
            filt_ops[unit] += num_texels
            if not num_texels:
                return arrival
            previous = filt_next[unit]
            start = previous if previous > arrival else arrival
            occupancy = num_texels / filt_rate[unit]
            done = start + occupancy
            filt_next[unit] = done
            filt_busy[unit] += occupancy
            return done + filt_depth[unit]

        self.generate_addresses = generate_addresses
        self.filter_texels = filter_texels

    def flush(self) -> None:
        """Write the session's per-unit state back to the live units."""
        for index, unit in enumerate(self.units):
            activity = unit.activity
            activity.requests += self.requests[index]
            addr_ops, filt_ops = self.addr_ops[index], self.filt_ops[index]
            activity.address_ops = Ops(activity.address_ops + addr_ops)
            activity.filter_ops = Ops(activity.filter_ops + filt_ops)
            address_stage = unit.address_stage
            address_stage._next_issue = Cycles(self.addr_next[index])
            address_stage.busy_cycles = Cycles(self.addr_busy[index])
            address_stage.total_ops = Ops(address_stage.total_ops + addr_ops)
            filter_stage = unit.filter_stage
            filter_stage._next_issue = Cycles(self.filt_next[index])
            filter_stage.busy_cycles = Cycles(self.filt_busy[index])
            filter_stage.total_ops = Ops(filter_stage.total_ops + filt_ops)


class ReplaySession:
    """One replay's serving context, opened by :meth:`TexturePath.begin_replay`.

    The scheduler calls :meth:`serve_one` once per request, serving each
    cluster's requests in index order, and :meth:`finish` once at drain
    time, before any counter is read; ``finish`` refuses a replay that
    did not serve every request once (:func:`check_served`).  Each design's session reads the frame's
    :class:`~repro.core.expansion.ExpandedFrame` arrays by request index;
    its arithmetic must stay bit-identical to the design's scalar
    reference in ``tests/reference.py``, which the replay parity tests
    compare it with end to end.
    """

    def serve_one(self, cluster: int, issue: float, index: int) -> float:
        """Serve the request at ``index``, issuing at ``issue`` from
        ``cluster``; return its completion cycle at the shader."""
        raise NotImplementedError

    def finish(self) -> None:
        """Flush any locally accumulated counters back to the path."""


class TexturePath(abc.ABC):
    """Interface every design's texture path implements."""

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        self.config = config
        self.traffic = traffic
        # The GPU's L1/L2 texture caches: the one state a path keeps
        # across reset_for_measurement.  S-TFIM has none.
        self.caches: Optional[CacheHierarchy] = None
        self._column_cache: Optional[Tuple[ExpandedFrame, Any]] = None
        # (below, above): every effective angle threshold t with
        # below <= t < above repeats each replay since the path was
        # built.  Only A-TFIM's angle comparisons narrow it, and
        # reset_for_measurement keeps it, as the caches' cold fills.
        self.threshold_interval: Tuple[float, float] = (0.0, math.inf)

    def _columns_for(
        self, frame: ExpandedFrame, build: Callable[[], _Columns]
    ) -> _Columns:
        """``build()``'s per-trace replay columns, memoised on the
        frame's identity from one replay to the next.

        Where a frame needs a replay from the warm caches, the frame
        frontend replays the *same* frame object twice, so keying on
        identity lets the warm replay reuse the cold one's precompute.
        Holding the frame reference in the cache keeps the ``is`` test
        sound (the id cannot be recycled while we hold it).  Columns
        depend only on the frame and the path's configuration, both
        fixed for the path's lifetime, so the cache survives
        reset_for_measurement.  A hit hands the columns over and empties
        the cache, and the frontend calls :meth:`release_columns` after
        its last replay, whether that was the first or the second: a
        finished run holds no frame or columns, so the runs a caller
        keeps (or pickles) stay small.
        """
        cached, self._column_cache = self._column_cache, None
        if cached is not None and cached[0] is frame:
            return cached[1]
        del cached  # free another frame's columns before building
        columns = build()
        self._column_cache = (frame, columns)
        return columns

    def release_columns(self) -> None:
        """Drop the frame and columns the last replay left for a next one."""
        self._column_cache = None

    @abc.abstractmethod
    def begin_replay(self, frame: ExpandedFrame,
                     clusters: np.ndarray) -> ReplaySession:
        """Open a serving session for one replay of ``frame``.

        ``clusters[i]`` is the shader cluster that issues request ``i``.
        The scheduler serves every request of a replay through one
        session, once each and each cluster's in index order, letting
        path implementations decide every L1 probe up front
        (:class:`L1Replay`), precompute per-request columns (texel
        counts, line slices, cache set/tag address math) from the
        frame's arrays, and keep the state they serve -- units, caches,
        queues, merge windows and the memory -- in locals until
        :meth:`ReplaySession.finish`.
        """

    @abc.abstractmethod
    def activity(self) -> PathActivity:
        """Energy-relevant activity accumulated so far."""

    @abc.abstractmethod
    def reset_for_measurement(self) -> None:
        """Reset all timing state and counters, keeping cache contents.

        Called between a frame's cold replay and its replay from the
        warm caches, and between a sequence's frames: the next replay
        sees the caches the last one left, with fresh resource clocks
        and statistics.  The caches are all it keeps (with
        :attr:`threshold_interval`, which describes the replays rather
        than the machine): every unit, queue, merge window, link, TSV,
        DRAM bank and counter returns to its constructed state, so a
        path without caches (S-TFIM) returns to its constructed state
        entirely.  That is what lets ``simulate_frame`` measure the
        cold replay wherever :meth:`warm_start_inert` holds.
        """

    def warm_start_inert(self) -> bool:
        """Whether a replay from the caches' current contents would
        repeat every cache outcome of the replays since they were empty.

        After one replay from a freshly built path this decides whether
        its warm restart could differ: if not, and with
        :meth:`reset_for_measurement` returning everything else to its
        constructed state, the warm restart would repeat every counter,
        cycle, cache line and angle tag of the cold replay.  A path
        without caches (S-TFIM) is trivially inert.
        """
        return self.caches is None or self.caches.warm_start_inert()

    def cache_stats(self) -> CacheHierarchyStats:
        """Cache outcomes (zeroed for cache-less paths like S-TFIM)."""
        if self.caches is None:
            return CacheHierarchyStats()
        return self.caches.stats()

    def stat_group(self, name: str = "path") -> "StatGroup":
        """Snapshot of this path's filter-stage and cache counters.

        The base implementation covers what every design reports
        (texture-unit activity and the cache hierarchy); subclasses
        adopt their memory model's group (GDDR5 bus counters, HMC link
        and vault-service counters) and design-specific stages on top.
        Read at frame drain time by :mod:`repro.obs.snapshot` -- nothing
        here runs during request service.
        """
        from repro.sim.stats import StatGroup

        group = StatGroup(name)
        activity = self.activity()
        gpu = group.child("gpu_texture_units")
        gpu.counter("requests").add(activity.gpu_texture.requests)
        gpu.counter("address_ops").add(activity.gpu_texture.address_ops)
        gpu.counter("filter_ops").add(activity.gpu_texture.filter_ops)
        mtu = group.child("memory_texture_units")
        mtu.counter("requests").add(activity.memory_texture.requests)
        mtu.counter("address_ops").add(activity.memory_texture.address_ops)
        mtu.counter("filter_ops").add(activity.memory_texture.filter_ops)
        stats = self.cache_stats()
        caches = group.child("caches")
        caches.counter("l1_hits").add(stats.l1_hits)
        caches.counter("l1_misses").add(stats.l1_misses)
        caches.counter("l1_angle_misses").add(stats.l1_angle_misses)
        caches.counter("l2_hits").add(stats.l2_hits)
        caches.counter("l2_misses").add(stats.l2_misses)
        return group
