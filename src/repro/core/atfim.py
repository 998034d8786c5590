"""A-TFIM: anisotropic filtering in memory, reordered first (section V).

The advanced design splits texture filtering:

* the GPU texture units run only bilinear/trilinear, over *parent texels*
  (the 8 texels trilinear needs with anisotropic filtering disabled),
  which live in the ordinary L1/L2 texture caches tagged with the camera
  angle they were filtered under;
* on a parent-texel miss -- or a hit whose stored angle differs from the
  requesting pixel's by more than the threshold -- the Offloading Unit
  packs the missing parents into one offloading package (hash-table
  offset compression, section V-D) and ships it to the HMC;
* in the logic layer, the Texel Generator expands each parent into its
  probe-displaced *child texels*, the Child Texel Consolidation merges
  duplicate child fetches, the vaults serve them at internal bandwidth,
  and the Combination Unit averages children into approximated parent
  values, which return as one normal-format response package.

Structures and sizes follow Fig. 9 and section V-D: a 256-entry Parent
Texel Buffer gates in-flight parents; the Texel Generator and Combination
Unit are 16-wide ALU arrays.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame, _offsets
from repro.core.paths import (
    L1_ANGLE_MISS,
    L1_HIT,
    CacheHierarchy,
    GpuReplayColumns,
    L1Replay,
    MergeWindowReplay,
    PathActivity,
    QueueReplay,
    ReadMergeWindow,
    ReplaySession,
    TexturePath,
    UnitReplayState,
    _set_tables,
    check_frame,
    check_served,
)
from repro.gpu.config import ATFIM_MEMORY_UNIT
from repro.gpu.texunit import TextureUnit
from repro.memory.hmc import HybridMemoryCube
from repro.memory.replay import HmcReplay, require_positive_sizes
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.sim.resources import RequestQueue
from repro.texture.cache import CacheAccessResult, _Line
from repro.texture.lod import quantize_angles
from repro.units import Bytes

PARENT_TEXEL_BUFFER_DEPTH = 256
"""Entries in the Parent Texel Buffer, equal to the memory request queue
size "to avoid data loss" (section V-D)."""


class AtfimPath(TexturePath):
    """The A-TFIM texture path."""

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        super().__init__(config, traffic)
        if config.design is not Design.A_TFIM:
            raise ValueError(f"wrong path for design {config.design}")
        gpu = config.gpu
        self.hmc = HybridMemoryCube(config.hmc)
        self.units: List[TextureUnit] = [
            TextureUnit(f"tu.{cluster}", gpu.texture_unit)
            for cluster in range(gpu.num_clusters)
        ]
        self.caches = CacheHierarchy(config, traffic)
        # Logic-layer pipeline (one instance, 16-wide, shared by all
        # clusters -- Fig. 9 shows a single in-memory filtering pipeline).
        self.texel_generator = TextureUnit("hmc.texelgen", ATFIM_MEMORY_UNIT)
        self.combination_unit = TextureUnit("hmc.combine", ATFIM_MEMORY_UNIT)
        self.parent_buffer = RequestQueue(
            name="hmc.parentbuf",
            capacity=PARENT_TEXEL_BUFFER_DEPTH,
            drain_rate=float(ATFIM_MEMORY_UNIT.filter_alus),
        )
        # The Child Texel Consolidation buffer (256 entries, section V-D)
        # also merges identical child fetches *across* in-flight
        # offloading packages: recalculations of popular parent texels
        # re-request the same child lines within a short window.
        self.child_merge_window = ReadMergeWindow(capacity=PARENT_TEXEL_BUFFER_DEPTH)
        self.parent_reuses = 0
        self.parent_recalculations = 0
        self.parent_cold_misses = 0
        self.child_texels_generated = 0
        self.child_lines_fetched = 0
        self.offload_packages = 0

    def begin_replay(self, frame: ExpandedFrame,
                     clusters: np.ndarray) -> ReplaySession:
        return _AtfimReplaySession(self, frame, clusters)

    def activity(self) -> PathActivity:
        activity = PathActivity()
        for unit in self.units:
            activity.gpu_texture.merge(unit.activity)
        activity.memory_texture.merge(self.texel_generator.activity)
        activity.memory_texture.merge(self.combination_unit.activity)
        stats = self.caches.stats()
        activity.l1_accesses = stats.l1_accesses
        activity.l2_accesses = stats.l1_misses + stats.l1_angle_misses
        activity.parent_recalculations = self.parent_recalculations
        activity.parent_reuses = self.parent_reuses
        activity.child_texels_generated = self.child_texels_generated
        activity.child_lines_fetched = self.child_lines_fetched
        return activity

    def stat_group(self, name: str = "path") -> "StatGroup":
        group = super().stat_group(name)
        group.adopt(self.hmc.stat_group("memory"))
        stages = group.child("atfim_stages")
        stages.counter("parent_reuses").add(self.parent_reuses)
        stages.counter("parent_recalculations").add(self.parent_recalculations)
        stages.counter("parent_cold_misses").add(self.parent_cold_misses)
        stages.counter("child_texels_generated").add(self.child_texels_generated)
        stages.counter("child_lines_fetched").add(self.child_lines_fetched)
        stages.counter("offload_packages").add(self.offload_packages)
        stages.counter("recalculation_rate").add(self.recalculation_rate())
        return group

    def reset_for_measurement(self) -> None:
        for unit in self.units:
            unit.reset()
        self.caches.reset_for_measurement()
        self.texel_generator.reset()
        self.combination_unit.reset()
        self.parent_buffer.reset()
        self.child_merge_window.reset()
        self.hmc.reset()
        self.parent_reuses = 0
        self.parent_recalculations = 0
        self.parent_cold_misses = 0
        self.child_texels_generated = 0
        self.child_lines_fetched = 0
        self.offload_packages = 0

    def recalculation_rate(self) -> float:
        """Fraction of parent-texel accesses that were angle-forced
        recalculations (the quantity the threshold controls)."""
        total = self.parent_reuses + self.parent_recalculations + self.parent_cold_misses
        if total == 0:
            return 0.0
        return self.parent_recalculations / total


class _AtfimColumns:
    """Per-trace columns of the A-TFIM replay session.

    Each parent is one address op and one filter op on the GPU, so
    ``gpu.texels`` counts every parent of a request.  The cache probes
    skip each parent row whose previous probe of the same L1 set, in
    the same request, was the same line.  That line is still its set's
    most recent, so the probe hits and moves no LRU entry.  It moves no
    angle tag either: the request's angle is fixed and its parents all
    carry a tag or none (``expand_frame`` gives each the request's probe
    count), so the probe repeats a comparison that just came out within
    the threshold, or meets the angle the previous probe stored.  That
    holds for every threshold and every cache content, so it is decided
    once per frame.  ``repeats[i]`` counts request ``i``'s skipped rows,
    which the session adds to its L1 hits and reuses; ``gpu.offsets``
    and the cache columns cover the kept rows, and ``rows[k]`` is kept
    row ``k``'s parent row.

    ``l1_angle[i]`` and ``l2_angle[i]`` are request ``i``'s camera
    angle quantised to each cache's ``angle_bits``, as
    ``TextureCache.lookup`` stores it, or None where its parents carry
    no angle tag (only anisotropic parents, ``child_counts > 1``, do);
    ``l1_tags[k]`` is kept row ``k``'s L1 tag, NaN for None, as
    :class:`~repro.core.paths.L1Replay` reads it.
    The offload reads only missing parents' rows of ``child_counts``,
    ``child_offsets`` and ``child_lines``, so those stay views of the
    frame's arrays (items read as python ints), checked once per frame
    like the rest.
    """

    __slots__ = ("gpu", "repeats", "rows", "l1_angle", "l2_angle",
                 "l1_tags", "child_counts", "child_offsets", "child_lines")

    def __init__(self, config: DesignConfig, frame: ExpandedFrame) -> None:
        lines, child_counts = frame.parent_lines, frame.child_counts
        check_frame(child_counts, lines, frame.child_lines)
        counts = np.diff(frame.parent_offsets)
        request = np.repeat(np.arange(len(counts)), counts)
        tagged = child_counts > 1
        angled = np.zeros(len(counts), dtype=bool)
        nonempty = counts > 0
        angled[nonempty] = tagged[frame.parent_offsets[:-1][nonempty]]
        if not np.array_equal(angled[request], tagged):
            raise ValueError("a request's parents must all carry an angle "
                             "tag or none")
        # Rank each request's rows by L1 set, in probe order within a
        # set: a row repeats where the row before it probed the same line.
        l1 = config.gpu.l1_cache
        l1_lines = lines // l1.line_bytes
        order = np.argsort(request * l1.num_sets + l1_lines % l1.num_sets,
                           kind="stable")
        repeat = np.zeros(len(lines), dtype=bool)
        repeat[order[1:]] = ((request[order[1:]] == request[order[:-1]])
                             & (l1_lines[order[1:]] == l1_lines[order[:-1]]))
        repeats = np.bincount(request[repeat], minlength=len(counts))
        kept = ~repeat
        self.gpu = GpuReplayColumns(
            config.gpu, counts, _offsets(counts - repeats), lines[kept]
        )
        self.repeats = repeats.tolist()
        self.rows = np.flatnonzero(kept).tolist()
        self.child_counts = memoryview(child_counts)
        self.child_offsets = memoryview(frame.child_offsets)
        self.child_lines = memoryview(frame.child_lines)

        def tags(bits: int) -> np.ndarray:
            angles = quantize_angles(frame.camera_angles, bits)
            angles[~angled] = np.nan
            return angles

        def stored(angles: np.ndarray) -> List[Optional[float]]:
            values = angles.astype(object)
            values[~angled] = None
            return values.tolist()

        l1_tags = tags(l1.angle_bits)
        self.l1_angle = stored(l1_tags)
        self.l2_angle = stored(tags(config.gpu.l2_cache.angle_bits))
        self.l1_tags = l1_tags[self.gpu.requests]


class _AtfimReplaySession(ReplaySession):
    """Replay session for A-TFIM.

    Built as a closure over per-trace columns and local state, as
    :class:`~repro.core.baseline._GpuReplaySession` is.  The session
    serves each request operation for operation as the scalar reference
    in ``tests/reference.py`` does, with no call into a live object:

    * the GPU texture unit's address and filter stages over the
      request's parents (:class:`~repro.core.paths.UnitReplayState`),
      and the angle-tagged L1 -> L2 classification (``TextureCache.lookup``
      on each level, with its cold-fill log).  Every kept parent's L1
      probe is decided when the session opens
      (:class:`~repro.core.paths.L1Replay`, over :class:`_AtfimColumns`,
      which a frame's cold replay hands to its warm one, if it has one:
      :meth:`TexturePath._columns_for`), so a request visits only its
      parents that miss L1 or find a stale angle tag there, and probes
      the L2 for each;
    * the offload of the missing parents: one package over the transmit
      link, the Parent Texel Buffer (:class:`~repro.core.paths.QueueReplay`),
      the Texel Generator, Child Texel Consolidation and its merge
      window (:class:`~repro.core.paths.MergeWindowReplay`) in front of
      the vault reads, the Combination Unit, and the response package
      over the receive link.  The two logic-layer units are a
      :class:`~repro.core.paths.UnitReplayState`; the links and vaults
      are :class:`~repro.memory.replay.HmcReplay`'s.

    Every counter -- L1/L2 hits, misses and angle misses, parent reuses,
    recalculations and cold misses, child texels and lines, offload
    packages, unit activity, the memory side and the texture bytes -- is
    folded locally and written back by ``finish``.  The meter's texture
    entries are assigned, which is exact because nothing else adds
    texture bytes while a session is open.  The cache side charges no
    time: a parent that misses L1 and hits L2 is a reuse and pays no
    L2-port occupancy or latency, which the baseline/B-PIM session
    charges for the same event.

    Each angle comparison, on either level, also narrows the path's
    :attr:`~repro.core.paths.TexturePath.threshold_interval`: ``below``
    is the largest difference that stayed within the threshold and
    ``above`` the smallest that exceeded it, so every effective
    threshold t with ``below <= t < above`` decides every comparison
    alike, and with it every counter, cycle and angle tag.  The L1's
    comparisons narrow it when the session opens, the L2's as they
    happen.
    """

    def __init__(self, path: AtfimPath, frame: ExpandedFrame,
                 clusters: np.ndarray) -> None:
        columns = path._columns_for(
            frame, lambda: _AtfimColumns(path.config, frame)
        )
        gpu = columns.gpu
        config = path.config
        threshold = config.effective_angle_threshold
        caches = path.caches
        l1 = L1Replay(caches.l1, clusters[gpu.requests], gpu.lines,
                      columns.l1_tags, threshold)
        offsets, missed = gpu.missed(l1.outcomes)
        texels = gpu.texels
        l2_set_col = gpu.l2_set[missed].tolist()
        l2_tag_col = gpu.l2_tag[missed].tolist()
        stale_col = (l1.outcomes[missed] == L1_ANGLE_MISS).tolist()
        rows = columns.rows
        parents = [rows[k] for k in missed.tolist()]
        del missed
        l2_assoc = gpu.l2_assoc
        l2_angle = columns.l2_angle
        child_counts = columns.child_counts
        child_offsets = columns.child_offsets
        child_lines = columns.child_lines
        below, above = path.threshold_interval
        below, above = max(below, l1.below), min(above, l1.above)
        consolidating = config.consolidation_enabled
        packets = config.packets
        request_bytes = packets.parent_texel_request_bytes
        response_bytes = packets.parent_texel_response_bytes
        line_bytes = packets.cache_line_bytes
        require_positive_sizes(request_bytes, line_bytes)
        served = bytearray(len(texels))

        state = UnitReplayState(path.units)
        generate_addresses = state.generate_addresses
        filter_texels = state.filter_texels
        requests_delta = state.requests
        l2_table, l2_fills = _set_tables(caches.l2)
        l2 = caches.l2
        l2_hits, l2_misses, l2_angle_misses = l2.hits, l2.misses, l2.angle_misses
        # Every L1 hit, a request's repeated probes included (see
        # _AtfimColumns), is a reuse, and every stale L1 hit a
        # recalculation.
        repeated = np.bincount(clusters, weights=columns.repeats,
                               minlength=len(caches.l1)).astype(np.int64)
        reuses = (path.parent_reuses + int(l1.counts[L1_HIT].sum())
                  + int(repeated.sum()))
        recalculations = (path.parent_recalculations
                          + int(l1.counts[L1_ANGLE_MISS].sum()))
        cold_misses = path.parent_cold_misses
        make_line = _Line
        hit, angle_miss, miss = (
            CacheAccessResult.HIT, CacheAccessResult.ANGLE_MISS,
            CacheAccessResult.MISS,
        )

        # The logic layer: Texel Generator (unit 0) and Combination Unit
        # (unit 1), the Parent Texel Buffer, the links and vaults.
        logic = UnitReplayState([path.texel_generator, path.combination_unit])
        generate_children = logic.generate_addresses
        combine_children = logic.filter_texels
        parent_buffer = QueueReplay([path.parent_buffer])
        admit = parent_buffer.enqueue
        memory = HmcReplay(path.hmc)
        send_request, send_response = memory.send_request, memory.send_response
        internal_read = memory.internal_read
        traffic = path.traffic
        external_bytes = traffic.external[TrafficClass.TEXTURE]
        internal_bytes = traffic.internal[TrafficClass.TEXTURE]
        offload_packages = path.offload_packages
        children_generated = path.child_texels_generated
        lines_fetched = path.child_lines_fetched

        def fetch(arrival: float, line: int) -> float:
            nonlocal internal_bytes, lines_fetched
            internal_bytes += line_bytes
            lines_fetched += 1
            return internal_read(arrival, line, line_bytes)

        # The merge window IS the consolidation buffer's cross-package
        # face: disabling consolidation disables both the intra-package
        # dedup and the merging.
        window = MergeWindowReplay([path.child_merge_window], fetch)
        merged_read = window.read

        def offload(arrival: float, missing: List[int]) -> float:
            """Round-trip the missing parents, given as parent rows,
            through the HMC pipeline."""
            nonlocal offload_packages, children_generated, external_bytes
            offload_packages += 1
            # Offloading Unit: one compressed package for this fetch's
            # missing parents, then Parent Texel Buffer admission.
            external_bytes += request_bytes
            delivered = send_request(arrival, request_bytes)
            admitted = admit(0, delivered)
            # Texel Generator: one address op per child texel.
            total_children = 0
            for parent in missing:
                total_children += child_counts[parent]
            children_generated += total_children
            generated = generate_children(0, admitted, total_children)
            # Child Texel Consolidation: dedup child lines across
            # parents, in first-touch order, and merge each against
            # in-flight identical fetches; vault reads at internal
            # bandwidth for the rest.
            data_ready = generated
            if consolidating:
                seen = set()
                for parent in missing:
                    bounds = child_offsets[parent], child_offsets[parent + 1]
                    for line in child_lines[bounds[0]:bounds[1]]:
                        if line in seen:
                            continue
                        seen.add(line)
                        ready = merged_read(0, generated, line)
                        if ready > data_ready:
                            data_ready = ready
            else:
                for parent in missing:
                    bounds = child_offsets[parent], child_offsets[parent + 1]
                    for line in child_lines[bounds[0]:bounds[1]]:
                        ready = fetch(generated, line)
                        if ready > data_ready:
                            data_ready = ready
            # Combination Unit: one filter op per child texel; the
            # response returns in normal bilinear-fetch format.
            combined = combine_children(1, data_ready, total_children)
            response = response_bytes(len(missing))
            external_bytes += response
            return send_response(combined, response)

        def stale(stored: Optional[float], angle: float) -> bool:
            """Whether a line tagged ``stored`` is recalculated for a
            request at ``angle``; narrows the threshold interval."""
            nonlocal below, above
            if stored is None:
                return True
            difference = abs(stored - angle)
            if difference > threshold:
                if difference < above:
                    above = difference
                return True
            if difference > below:
                below = difference
            return False

        def probe_l2(k: int, angle: Optional[float]) -> CacheAccessResult:
            """``TextureCache.lookup`` on the L2 for missed row ``k``;
            ``angle`` is None for an untagged (isotropic) parent."""
            nonlocal l2_hits, l2_misses, l2_angle_misses
            cache_set = l2_table[l2_set_col[k]]
            tag = l2_tag_col[k]
            line = cache_set.get(tag)
            if line is not None:
                cache_set.move_to_end(tag)
                if angle is not None and stale(line.angle, angle):
                    line.angle = angle
                    l2_angle_misses += 1
                    return angle_miss
                l2_hits += 1
                return hit
            if len(cache_set) >= l2_assoc:
                cache_set.popitem(last=False)
            else:
                l2_fills[l2_set_col[k]].append(tag)
            cache_set[tag] = make_line(tag, angle)
            l2_misses += 1
            return miss

        def serve_one(cluster: int, issue: float, index: int) -> float:
            nonlocal reuses, recalculations, cold_misses
            served[index] += 1
            requests_delta[cluster] += 1
            num_parents = texels[index]
            if not num_parents:
                return issue
            address_done = generate_addresses(cluster, issue, num_parents)
            first, last = offsets[index], offsets[index + 1]
            if first == last:
                return filter_texels(cluster, address_done, num_parents)
            l2_stored = l2_angle[index]
            missing: List[int] = []
            for k in range(first, last):
                result = probe_l2(k, l2_stored)
                if stale_col[k]:
                    # A stale-angle line is recalculated whatever the
                    # L2 holds; the L2 copy's angle tag refreshes.
                    missing.append(parents[k])
                elif result is hit:
                    reuses += 1
                elif result is angle_miss:
                    recalculations += 1
                    missing.append(parents[k])
                else:
                    cold_misses += 1
                    missing.append(parents[k])

            ready = offload(address_done, missing) if missing else address_done
            return filter_texels(cluster, ready, num_parents)

        def finish() -> None:
            check_served(served)
            l1.flush()
            for cache, count in zip(caches.l1, repeated.tolist()):
                cache.hits += count
            state.flush()
            logic.flush()
            parent_buffer.flush()
            window.flush()
            memory.flush()
            traffic.external[TrafficClass.TEXTURE] = Bytes(external_bytes)
            traffic.internal[TrafficClass.TEXTURE] = Bytes(internal_bytes)
            l2.hits, l2.misses, l2.angle_misses = (
                l2_hits, l2_misses, l2_angle_misses
            )
            path.parent_reuses = reuses
            path.parent_recalculations = recalculations
            path.parent_cold_misses = cold_misses
            path.offload_packages = offload_packages
            path.child_texels_generated = children_generated
            path.child_lines_fetched = lines_fetched
            path.threshold_interval = (below, above)

        self.serve_one = serve_one
        self.finish = finish
