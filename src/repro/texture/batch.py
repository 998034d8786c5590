"""Batched (numpy-vectorised) texture filtering kernels.

The scalar kernels in :mod:`repro.texture.sampling` walk one fragment at
a time, one texel tap at a time — fine as a readable hardware reference,
hopeless as the inner loop of a figure suite that filters hundreds of
thousands of fragments.  This module re-expresses the same math over
*arrays of fragments*: every probe of every fragment is filtered at
once, its taps gathered with one flat ``np.take`` per mip level and
blended with broadcast multiplies, so one numpy call replaces thousands
of Python-level tap loops.

Bit-identity contract
---------------------
Every kernel here is **bit-identical** to its scalar counterpart, not
merely close: per fragment, the batch path performs the *same IEEE-754
operations in the same order* as the scalar path —

* bilinear taps accumulate into a zero vector in the fixed tap order
  (x0y0, x1y0, x0y1, x1y1), each as ``acc += weight * texel``;
* the trilinear blend is ``low * (1 - w) + high * w`` and single-level
  blends return the low color *without* the degenerate multiply;
* anisotropic probes accumulate in probe-index order and divide once at
  the end;
* probe offsets use the same ``round()`` (half-to-even, matching
  ``np.rint``) of the same products;
* A-TFIM's anisotropic-first order filters each parent's children the
  same way, then adds a request's weighted parents in slot order, each
  as ``color += weight * value``.

The scalar functions stay the oracle: ``tests/texture/test_batch.py``
holds every kernel to them byte for byte, fetch sets included, and the
drain-time ``batch-fetch-parity`` invariant
(:func:`repro.analysis.invariants.check_batch_scalar_parity`) re-checks
a deterministic sample of every batched render when
``REPRO_CHECK_INVARIANTS=1``: requests for the exact and isotropic
kernels, recalculated parents for the anisotropic-first one.

Grouping strategy: fragments and parents are partitioned by probe
count, so a group's offsets form one ``(rows, probes)`` matrix, and
sorted by mip level, so each level's taps or children are one gather.
Neither changes results — all arithmetic is per-fragment elementwise.
The one step that is not elementwise is A-TFIM's reuse decision
(:func:`reuse_producers`): each lookup depends on its key's earlier
recalculations, so it runs as array rounds over all keys at once, one
recalculation per key per round.  The per-lookup loop it replaces is
the oracle in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.texture.lod import SampleFootprint, quantize_angles
from repro.texture.mipmap import MipmapChain
from repro.texture.requests import FragmentTrace
from repro.texture.sampling import TexelCoord


@dataclass
class RequestBatch:
    """Structure-of-arrays view of a set of texture lookups.

    All arrays share one length (one entry per fragment); ``u``/``v``
    are sample positions in level-0 texel units, the remaining fields
    are the flattened :class:`~repro.texture.lod.SampleFootprint`.
    """

    u: np.ndarray
    v: np.ndarray
    lod: np.ndarray
    probes: np.ndarray
    major_du: np.ndarray
    major_dv: np.ndarray
    major_length: np.ndarray

    def __len__(self) -> int:
        return int(self.u.shape[0])

    def take(self, rows: Union[slice, np.ndarray]) -> "RequestBatch":
        """The lookups at ``rows``."""
        return RequestBatch(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def from_trace(
        cls, trace: FragmentTrace, rows: Union[slice, np.ndarray] = slice(None)
    ) -> "RequestBatch":
        """The lookups at ``rows`` of a trace (all of them by default)."""
        footprint = trace.footprint
        return cls(
            trace.u, trace.v, footprint.lod, footprint.probes,
            footprint.major_du, footprint.major_dv, footprint.major_length,
        ).take(rows)


class BatchFetchRecorder:
    """Records the texel fetches of batched kernels per source fragment.

    The scalar :class:`~repro.texture.sampling._FetchRecorder` merges
    duplicates in first-touch order; a batched kernel touches texels in
    stage order (all fragments' low-level taps, then all high-level
    taps), so *order* differs between the paths while the per-fragment
    fetch *sets* — what hardware coalescing and the cycle model care
    about — are identical.  This recorder therefore exposes per-fragment
    deduplicated sets and counts.
    """

    def __init__(self) -> None:
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def add(
        self,
        request_indices: np.ndarray,
        level: int,
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> None:
        """Record one gather at one mip level: wrapped coordinates, one
        row of ``xs``/``ys`` (any trailing shape) per request index."""
        per_row = np.size(xs) // len(request_indices)
        self._chunks.append((
            np.repeat(np.asarray(request_indices, dtype=np.int64), per_row),
            np.full(np.size(xs), level, dtype=np.int64),
            np.asarray(xs, dtype=np.int64).ravel(),
            np.asarray(ys, dtype=np.int64).ravel(),
        ))

    def request_texels(self) -> Dict[int, List[TexelCoord]]:
        """Deduplicated ``(level, x, y)`` fetches keyed by fragment index."""
        sets: Dict[int, set] = {}
        ordered: Dict[int, List[TexelCoord]] = {}
        for req, levels, xs, ys in self._chunks:
            for index in range(len(req)):
                key = int(req[index])
                coord = (int(levels[index]), int(xs[index]), int(ys[index]))
                bucket = sets.setdefault(key, set())
                if coord not in bucket:
                    bucket.add(coord)
                    ordered.setdefault(key, []).append(coord)
        return ordered

    def request_counts(self) -> Dict[int, int]:
        """Unique-texel fetch count per fragment index."""
        return {
            key: len(coords) for key, coords in self.request_texels().items()
        }


def level_blend_arrays(
    chain: MipmapChain, lod: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`~repro.texture.sampling.level_blend_for`.

    Returns ``(level_low, level_high, weight)`` arrays with the scalar
    function's exact clamping: non-positive LOD pins to level 0, LOD at
    or past the last level pins there, and an exactly-integral LOD
    collapses to a single level with zero weight.
    """
    lod = np.asarray(lod, dtype=np.float64)
    max_level = chain.max_level
    low = np.floor(lod)
    weight = lod - low
    low_i = low.astype(np.int64)
    high_i = low_i + 1
    single = weight == 0.0
    high_i = np.where(single, low_i, high_i)
    below = lod <= 0.0
    above = lod >= max_level
    low_i = np.where(below, 0, np.where(above, max_level, low_i))
    high_i = np.where(below, 0, np.where(above, max_level, high_i))
    weight = np.where(below | above | single, 0.0, weight)
    return low_i, high_i, weight


def probe_offset_matrix(
    levels: np.ndarray,
    major_du: np.ndarray,
    major_dv: np.ndarray,
    major_length: np.ndarray,
    probes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`~repro.texture.sampling.probe_offsets`: every
    probe's integer offsets, as ``(rows, probes)`` arrays, for fragments
    sharing one probe count (one undisplaced probe when it is 1).

    Column ``i`` performs the scalar function's IEEE-754 operations for
    probe ``i``, and ``np.rint`` rounds half to even exactly as Python's
    ``round`` does, so every displacement matches it bit for bit.
    """
    if probes == 1:
        zero = np.zeros((len(major_du), 1), dtype=np.int64)
        return zero, zero
    spacing = major_length / np.ldexp(1.0, levels) / probes
    distance = (np.arange(probes) - (probes - 1) / 2.0) * spacing[:, None]
    return (
        np.rint(distance * major_du[:, None]).astype(np.int64),
        np.rint(distance * major_dv[:, None]).astype(np.int64),
    )


TAP_DX = np.array([0, 1, 0, 1], dtype=np.int64)
TAP_DY = np.array([0, 0, 1, 1], dtype=np.int64)
"""The bilinear tap order of :func:`repro.texture.sampling.bilinear_taps`."""


def _level_runs(
    chain: MipmapChain,
    levels: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
) -> Iterator[Tuple[slice, np.ndarray]]:
    """Each run of rows at one mip level, with the texels at its rows'
    unwrapped ``xs``/``ys`` (any trailing shape, a color axis appended):
    one flat ``np.take`` on the level's ``(h*w, 4)`` view.  Callers pass
    rows sorted by level and reduce each run before the next is fetched.

    Level sizes are powers of two (:class:`~repro.texture.texture.Texture`
    requires it), so the scalar wrap ``x % width`` is the mask
    ``x & (width - 1)``, for negative ``x`` too.  ``recorder`` logs each
    row's fetches under ``request_indices``.
    """
    starts = np.flatnonzero(np.diff(levels, prepend=levels[:1] - 1)).tolist()
    for start, end in zip(starts, [*starts[1:], len(levels)]):
        mip = chain.level(int(levels[start]))
        wrapped_x = xs[start:end] & (mip.width - 1)
        wrapped_y = ys[start:end] & (mip.height - 1)
        if recorder is not None and request_indices is not None:
            recorder.add(
                request_indices[start:end], mip.level, wrapped_x, wrapped_y
            )
        yield slice(start, end), np.take(
            mip.data.reshape(-1, 4), wrapped_y * mip.width + wrapped_x, axis=0
        )


def bilinear_tap_arrays(
    u: np.ndarray, v: np.ndarray, levels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Vectorised :func:`~repro.texture.sampling.bilinear_taps` at each
    row's level, for level-0 ``u``/``v``: the unwrapped coordinates of
    the first tap (the others step by :data:`TAP_DX`/:data:`TAP_DY`) and
    the four tap weights, by the scalar function's operations.  The one
    batched home of the tap arithmetic: the kernels and request
    expansion all take their taps from here."""
    scale = np.ldexp(1.0, levels)
    su = u / scale - 0.5
    sv = v / scale - 0.5
    x0f = np.floor(su)
    y0f = np.floor(sv)
    fx = su - x0f
    fy = sv - y0f
    weights = ((1.0 - fx) * (1.0 - fy), fx * (1.0 - fy), (1.0 - fx) * fy, fx * fy)
    return x0f.astype(np.int64), y0f.astype(np.int64), weights


def _probe_mean(values: np.ndarray) -> np.ndarray:
    """Each row's probes (axis 1) added into a zero vector in index
    order and divided by the count once, as the scalar loops do."""
    total = np.zeros((len(values), 4), dtype=np.float64)
    for index in range(values.shape[1]):
        total += values[:, index]
    return total / values.shape[1]


def bilinear_batch(
    chain: MipmapChain,
    levels: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    offset_x: Optional[np.ndarray] = None,
    offset_y: Optional[np.ndarray] = None,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Bilinear filter a fragment array, each at its own mip level.

    Mirrors :func:`~repro.texture.sampling.bilinear_sample`: levels are
    clamped to the chain, coordinates scale by the clamped level, the
    2x2 taps accumulate in fixed order with wrap addressing applied at
    fetch time, all taps of all probes at one level in one gather
    (:func:`_level_runs`).  ``offset_x``/``offset_y`` are integer probe
    displacements as ``(fragments, probes)`` arrays
    (:func:`probe_offset_matrix`), giving ``(fragments, probes, 4)``
    colors; without them, one undisplaced sample, ``(fragments, 4)``.
    """
    if offset_x is None or offset_y is None:
        zero = np.zeros((len(u), 1), dtype=np.int64)
        return bilinear_batch(
            chain, levels, u, v, zero, zero, request_indices, recorder
        )[:, 0]
    levels = np.clip(np.asarray(levels, dtype=np.int64), 0, chain.max_level)
    x0, y0, tap_weights = bilinear_tap_arrays(
        np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64), levels
    )
    out = np.zeros(offset_x.shape + (4,), dtype=np.float64)
    for rows, texels in _level_runs(
        chain,
        levels,
        x0[:, None, None] + offset_x[:, :, None] + TAP_DX,
        y0[:, None, None] + offset_y[:, :, None] + TAP_DY,
        request_indices,
        recorder,
    ):
        for tap, weight in enumerate(tap_weights):
            out[rows] += weight[rows, None, None] * texels[:, :, tap]
    return out


def trilinear_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    probes: int,
    request_indices: np.ndarray,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Trilinear filter a fragment batch at each of its ``probes``
    anisotropic probes: ``(fragments, probes, 4)``.

    Mirrors :func:`~repro.texture.sampling.trilinear_sample`: each
    fragment blends the bilinear results of its two mip levels with its
    fractional LOD weight, each level's taps displaced by each probe's
    integer offset at that level (:func:`probe_offset_matrix`; a single
    probe is undisplaced).  Single-level fragments take the low bilinear
    result directly (no zero-weight blend arithmetic), and their high
    level is neither fetched nor recorded -- exactly as the scalar path
    behaves.  ``recorder`` logs each fragment's fetches under
    ``request_indices``.
    """
    low, high, weight = level_blend_arrays(chain, batch.lod)

    def bilinear(
        rows: Union[slice, np.ndarray], levels: np.ndarray
    ) -> np.ndarray:
        offset_x, offset_y = probe_offset_matrix(
            levels,
            batch.major_du[rows],
            batch.major_dv[rows],
            batch.major_length[rows],
            probes,
        )
        return bilinear_batch(
            chain, levels, batch.u[rows], batch.v[rows], offset_x, offset_y,
            request_indices[rows], recorder,
        )

    colors = bilinear(slice(None), low)
    dual = np.flatnonzero((weight != 0.0) & (low != high))
    if len(dual):
        blend = weight[dual, None, None]
        colors[dual] = (
            colors[dual] * (1.0 - blend) + bilinear(dual, high[dual]) * blend
        )
    return colors


def anisotropic_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Conventional-order anisotropic filter over a fragment batch.

    Mirrors :func:`~repro.texture.sampling.anisotropic_sample`: the
    fragments of each probe count are filtered at all their probes at
    once (:func:`trilinear_batch`); each then adds its probes in index
    order and divides by the count once.
    """
    return _by_probe_count(
        chain, batch, batch.probes, request_indices, recorder, _probe_mean
    )


def isotropic_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Trilinear-only batch filter (anisotropic disabled), the batched
    counterpart of ``TextureSampler.sample_isotropic``."""
    return _by_probe_count(
        chain, batch, np.ones(len(batch), dtype=np.int64), request_indices,
        recorder, lambda colors: colors[:, 0],
    )


def _by_probe_count(
    chain: MipmapChain,
    batch: RequestBatch,
    counts: np.ndarray,
    request_indices: Optional[np.ndarray],
    recorder: Optional[BatchFetchRecorder],
    reduce: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """:func:`trilinear_batch` of the fragments of each probe count in
    ``counts``, in ascending LOD order (so each mip level, low or high,
    is one run of :func:`_level_runs`), its probes reduced to a color."""
    if request_indices is None:
        request_indices = np.arange(len(batch), dtype=np.int64)
    out = np.empty((len(batch), 4), dtype=np.float64)
    for count in np.flatnonzero(np.bincount(counts)).tolist():
        rows = np.flatnonzero(counts == count)
        rows = rows[np.argsort(batch.lod[rows], kind="stable")]
        out[rows] = reduce(trilinear_batch(
            chain, batch.take(rows), count, request_indices[rows], recorder
        ))
    return out


PARENT_SLOTS = 8
"""Parent texels per lookup: 4 bilinear taps at each of two mip levels."""


@dataclass
class ParentTexels:
    """The parent texels of every request in a batch, as ``(requests, 8)``
    columns: :func:`~repro.texture.sampling.parent_texel_coords` per row.

    Slots 0-3 are the low level's bilinear taps and 4-7 the high level's,
    each in the scalar tap order.  A single-level request has only four
    parents, so its slots 4-7 are not ``used``.  Coordinates are
    unwrapped; ``keys`` numbers the wrapped texel within the whole chain,
    so two lookups share a key exactly when they name the same parent.
    """

    levels: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    keys: np.ndarray
    used: np.ndarray


def parent_texel_arrays(
    chain: MipmapChain, lod: np.ndarray, u: np.ndarray, v: np.ndarray
) -> ParentTexels:
    """Vectorised :func:`~repro.texture.sampling.parent_texel_coords`.

    Each weight is the bilinear tap weight times the level weight, the
    same two IEEE-754 products as the scalar function, so every
    coordinate and weight matches it exactly.
    """
    count = len(lod)
    low, high, blend_weight = level_blend_arrays(chain, lod)
    widths = np.array([mip.width for mip in chain.levels], dtype=np.int64)
    heights = np.array([mip.height for mip in chain.levels], dtype=np.int64)
    bases = np.concatenate(([0], np.cumsum(widths * heights)[:-1]))
    shape = (count, PARENT_SLOTS)
    levels = np.empty(shape, dtype=np.int64)
    xs = np.empty(shape, dtype=np.int64)
    ys = np.empty(shape, dtype=np.int64)
    weights = np.empty(shape, dtype=np.float64)
    for slots, level, level_weight in (
        (slice(0, 4), low, 1.0 - blend_weight),
        (slice(4, 8), high, blend_weight),
    ):
        x0, y0, tap_weights = bilinear_tap_arrays(u, v, level)
        levels[:, slots] = level[:, None]
        xs[:, slots] = x0[:, None] + TAP_DX
        ys[:, slots] = y0[:, None] + TAP_DY
        weights[:, slots] = np.stack(tap_weights, axis=1) * level_weight[:, None]
    used = np.ones(shape, dtype=bool)
    used[:, 4:] = ((blend_weight != 0.0) & (low != high))[:, None]
    level_widths = widths[levels]
    keys = (
        bases[levels]
        + (ys % heights[levels]) * level_widths
        + xs % level_widths
    )
    return ParentTexels(
        levels=levels, xs=xs, ys=ys, weights=weights, keys=keys, used=used
    )


def filter_parent_batch(
    chain: MipmapChain,
    levels: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    probes: np.ndarray,
    major_du: np.ndarray,
    major_dv: np.ndarray,
    major_length: np.ndarray,
    recorder: Optional[BatchFetchRecorder] = None,
    lookup_indices: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorised :func:`~repro.texture.sampling.filter_parent_texel`.

    One row per parent: its level, unwrapped coordinates and its
    request's footprint columns.  The rows of each probe count take
    their offsets from one :func:`probe_offset_matrix` call, and their
    children at each level are one gather (:func:`_level_runs`); each
    parent adds its children into a zero vector in probe index order and
    divides by the count once, as the scalar loop does.  ``recorder``
    logs each row's child fetches under ``lookup_indices``.
    """
    out = np.empty((len(levels), 4), dtype=np.float64)
    for count in np.flatnonzero(np.bincount(probes)).tolist():
        group = np.flatnonzero(probes == count)
        group = group[np.argsort(levels[group], kind="stable")]
        group_levels = levels[group]
        offset_x, offset_y = probe_offset_matrix(
            group_levels, major_du[group], major_dv[group], major_length[group],
            count,
        )
        for rows, children in _level_runs(
            chain,
            group_levels,
            xs[group, None] + offset_x,
            ys[group, None] + offset_y,
            None if lookup_indices is None else lookup_indices[group],
            recorder,
        ):
            out[group[rows]] = _probe_mean(children)
    return out


def _filter_parents(
    chain: MipmapChain,
    batch: RequestBatch,
    parents: ParentTexels,
    flat: np.ndarray,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """:func:`filter_parent_batch` of the parents at ascending ``flat``
    indices into ``parents``' ``(request, slot)`` columns; ``recorder``
    logs each one's child fetches under its position in ``flat``."""
    rows = flat // PARENT_SLOTS
    return filter_parent_batch(
        chain,
        parents.levels.ravel()[flat],
        parents.xs.ravel()[flat],
        parents.ys.ravel()[flat],
        batch.probes[rows],
        batch.major_du[rows],
        batch.major_dv[rows],
        batch.major_length[rows],
        recorder,
        np.arange(len(flat), dtype=np.int64),
    )


def reuse_producers(
    keys: np.ndarray, angles: np.ndarray, threshold: float
) -> np.ndarray:
    """A-TFIM's angle-tagged parent reuse, decided over a lookup stream.

    ``keys`` and ``angles`` (quantised camera angles) hold one entry per
    parent lookup, in request order and slot by slot.  A lookup reuses
    when its key is stored and the stored angle is within ``threshold``
    of its own.  The stored angle is that of the key's last
    *recalculation*: a reuse leaves the entry alone, while a
    recalculation stores its own index and angle.  Returns, for every
    lookup, the index of the lookup whose filtered value it uses (its
    own index when it recalculates).

    Keys never influence each other, so every key is decided at once.
    One stable sort by key puts each key's lookups together in request
    order (one request can hit a key twice: wrapped taps on a tiny mip).
    A key's first lookup recalculates, and after a recalculation ``r``
    the next one is the first later lookup of the key whose angle fails
    ``abs(angle_r - angle) <= threshold``: the per-lookup rule's own
    float64 comparison, so the producers equal its element for element.
    :func:`_later_recalculations` advances every key's chain of
    recalculations together; each lookup then takes the last
    recalculation of its key at or before it.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be non-negative")
    count = len(keys)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    order = _stable_key_order(keys)
    grouped = keys[order]
    recalculated = np.empty(count, dtype=bool)
    recalculated[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=recalculated[1:])
    _later_recalculations(angles[order], recalculated, threshold)
    latest = np.maximum.accumulate(np.where(recalculated, np.arange(count), 0))
    producers = np.empty(count, dtype=np.int64)
    producers[order] = order[latest]
    return producers


def _stable_key_order(keys: np.ndarray) -> np.ndarray:
    """The permutation that sorts ``keys`` stably (ties in index order).

    Key and index are packed into one int64 (key above, index below),
    whose plain sort is several times faster than a stable argsort; keys
    spread too wide to pack take the stable argsort.
    """
    keys = keys.astype(np.int64, copy=False)
    count = len(keys)
    shift = (count - 1).bit_length()
    low = int(keys.min())
    if (int(keys.max()) - low) >> (62 - shift):
        return np.argsort(keys, kind="stable")
    packed = np.sort(((keys - low) << shift) | np.arange(count))
    return packed & ((1 << shift) - 1)


_WINDOW = 8
"""Lookups each undecided key examines per round.  Most recalculations
follow the previous one within a few lookups, so a small window wastes
little work; a key with no exit in its window moves on by a window."""

_WINDOW_STEPS = np.arange(_WINDOW)


def _later_recalculations(
    angles: np.ndarray, recalculated: np.ndarray, threshold: float
) -> None:
    """Mark every recalculation after each key's first, in place.

    ``angles`` are grouped by key (each key's lookups contiguous, in
    request order) and ``recalculated`` marks each key's first lookup.
    Each round, every key with lookups left compares the next
    :data:`_WINDOW` of them against the angle of its latest
    recalculation; the first that fails the threshold becomes its next
    recalculation.  A round costs a fixed number of array operations,
    and the rounds number about the longest chain of recalculations.
    """
    starts = np.flatnonzero(recalculated)
    ends = np.append(starts[1:], len(angles))
    repeated = starts + 1 < ends
    latest, end = starts[repeated], ends[repeated]
    scan = latest + 1
    # A window can run past its key's last lookup, into the next key or
    # off the end (hence the padding); ``exits < end`` rejects exits there.
    padded = np.concatenate([angles, np.zeros(_WINDOW)])
    rows = np.arange(len(scan))
    while len(scan):
        window = padded[scan[:, None] + _WINDOW_STEPS]
        stays = np.abs(angles[latest][:, None] - window) <= threshold
        first = stays.argmin(axis=1)
        exits = scan + first
        moved = ~stays[rows[: len(scan)], first] & (exits < end)
        recalculated[exits[moved]] = True
        latest = np.where(moved, exits, latest)
        scan = np.where(moved, exits + 1, scan + _WINDOW)
        open_ = scan < end
        if not open_.all():
            latest, scan, end = latest[open_], scan[open_], end[open_]


def anisotropic_first_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    angles: Optional[np.ndarray] = None,
    threshold: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """A-TFIM's anisotropic-first filter over a batch.

    The batched counterpart of the scalar renderer's A-TFIM shading (and,
    without ``angles``, of
    :func:`~repro.texture.sampling.anisotropic_first_sample`).  Every
    request's parents become lookups in request order, slot by slot.
    Without ``angles`` each lookup filters its own parent.  With the
    requests' camera ``angles`` (radians), :func:`reuse_producers`
    decides which lookup produces each value.  Each producer is filtered
    once by :func:`filter_parent_batch`, the values are gathered, and
    each request adds its weighted slots in slot order, the scalar
    ``color += weight * value``.

    Returns the colors and the per-lookup producer indices.
    """
    parents = parent_texel_arrays(chain, batch.lod, batch.u, batch.v)
    used = parents.used.ravel()
    lookups = np.nonzero(used)[0]
    rows = lookups // PARENT_SLOTS
    keys = parents.keys.ravel()[lookups]
    if angles is None:
        producers = np.arange(len(keys), dtype=np.int64)
    else:
        quantised = quantize_angles(np.asarray(angles, dtype=np.float64))
        producers = reuse_producers(keys, quantised[rows], threshold)
    own = np.nonzero(producers == np.arange(len(keys)))[0]
    values = np.empty((len(keys), 4), dtype=np.float64)
    values[own] = _filter_parents(chain, batch, parents, lookups[own])
    slot_values = np.zeros((len(used), 4), dtype=np.float64)
    slot_values[lookups] = values[producers]
    slot_values = slot_values.reshape(len(batch), PARENT_SLOTS, 4)
    colors = np.zeros((len(batch), 4), dtype=np.float64)
    for slot in range(4):
        colors += parents.weights[:, slot, None] * slot_values[:, slot]
    dual = np.nonzero(parents.used[:, 4])[0]
    for slot in range(4, PARENT_SLOTS):
        colors[dual] += (
            parents.weights[dual, slot, None] * slot_values[dual, slot]
        )
    return colors, producers


class BatchSampler:
    """Batched facade over one mip chain, mirroring ``TextureSampler``.

    The functional renderer routes whole fragment arrays through this
    class; the scalar ``TextureSampler`` remains the oracle the batch
    path is validated against.
    """

    def __init__(self, chain: MipmapChain) -> None:
        self.chain = chain

    def sample_exact(
        self,
        batch: RequestBatch,
        recorder: Optional[BatchFetchRecorder] = None,
    ) -> np.ndarray:
        """Conventional-order (bilinear->trilinear->anisotropic) colors."""
        return anisotropic_batch(self.chain, batch, recorder=recorder)

    def sample_isotropic(
        self,
        batch: RequestBatch,
        recorder: Optional[BatchFetchRecorder] = None,
    ) -> np.ndarray:
        """Trilinear-only colors (anisotropic filtering disabled)."""
        return isotropic_batch(self.chain, batch, recorder=recorder)

    def verify_against_scalar(
        self,
        batch: RequestBatch,
        isotropic: bool = False,
        sample_limit: int = 256,
        producers: Optional[np.ndarray] = None,
    ) -> None:
        """Drain-time parity check of the batch path against the oracle.

        Re-filters a deterministic, evenly-strided sample through both
        paths with fetch recording on, then asserts (via
        :func:`repro.analysis.invariants.check_batch_scalar_parity`)
        that results are bit-identical and per-sample texel fetch sets
        (and therefore counts) agree.  Without ``producers`` the sample
        is of requests, re-filtered by the exact (or isotropic) kernel.
        With the ``producers`` of an :func:`anisotropic_first_batch`
        call, it is of the recalculated parents: each is checked against
        :func:`~repro.texture.sampling.parent_texel_coords` (parent
        count, coordinates and weight) and
        :func:`~repro.texture.sampling.filter_parent_texel` (value and
        child fetches).  Raises
        :class:`repro.analysis.invariants.InvariantError` on any
        divergence.
        """
        from repro.analysis.invariants import check_batch_scalar_parity

        if producers is None:
            entries = self._request_entries(batch, isotropic, sample_limit)
        else:
            entries = self._parent_entries(batch, producers, sample_limit)
        check_batch_scalar_parity(entries)

    def _request_entries(
        self, batch: RequestBatch, isotropic: bool, sample_limit: int
    ) -> List[tuple]:
        from repro.texture.sampling import (
            _FetchRecorder,
            anisotropic_sample,
            trilinear_sample,
        )

        picked = _strided(len(batch), sample_limit)
        sub = batch.take(picked)
        batch_recorder = BatchFetchRecorder()
        kernel = isotropic_batch if isotropic else anisotropic_batch
        batch_colors = kernel(self.chain, sub, recorder=batch_recorder)
        batch_texels = batch_recorder.request_texels()

        entries = []
        for position in range(len(sub)):
            scalar_recorder = _FetchRecorder()
            footprint = _footprint(sub, position)
            u, v = float(sub.u[position]), float(sub.v[position])
            if isotropic:
                scalar_color = trilinear_sample(
                    self.chain, footprint.lod, u, v, recorder=scalar_recorder
                )
            else:
                scalar_color = anisotropic_sample(
                    self.chain, footprint, u, v, recorder=scalar_recorder
                )
            entries.append(
                (
                    int(picked[position]),
                    batch_colors[position],
                    scalar_color,
                    frozenset(batch_texels.get(position, [])),
                    frozenset(scalar_recorder.texels),
                )
            )
        return entries

    def _parent_entries(
        self, batch: RequestBatch, producers: np.ndarray, sample_limit: int
    ) -> List[tuple]:
        from repro.texture.sampling import (
            _FetchRecorder,
            filter_parent_texel,
            parent_texel_coords,
        )

        parents = parent_texel_arrays(self.chain, batch.lod, batch.u, batch.v)
        lookups = np.nonzero(parents.used.ravel())[0]
        recalculated = np.nonzero(producers == np.arange(len(producers)))[0]
        picked = recalculated[_strided(len(recalculated), sample_limit)]
        flat = lookups[picked]
        rows = flat // PARENT_SLOTS
        batch_recorder = BatchFetchRecorder()
        batch_values = _filter_parents(
            self.chain, batch, parents, flat, batch_recorder
        )
        batch_texels = batch_recorder.request_texels()

        entries = []
        for position, (row, lookup) in enumerate(zip(rows, flat)):
            slot = int(lookup) % PARENT_SLOTS
            batch_parent = (
                int(parents.used[row].sum()),
                int(parents.levels[row, slot]),
                int(parents.xs[row, slot]),
                int(parents.ys[row, slot]),
                float(parents.weights[row, slot]),
                *batch_values[position],
            )
            scalar_parents = parent_texel_coords(
                self.chain,
                float(batch.lod[row]),
                float(batch.u[row]),
                float(batch.v[row]),
            )
            level, x, y, weight = scalar_parents[slot]
            scalar_recorder = _FetchRecorder()
            scalar_value = filter_parent_texel(
                self.chain, _footprint(batch, int(row)), level, x, y,
                recorder=scalar_recorder,
            )
            entries.append(
                (
                    int(picked[position]),
                    batch_parent,
                    (len(scalar_parents), level, x, y, weight, *scalar_value),
                    frozenset(batch_texels.get(position, [])),
                    frozenset(scalar_recorder.texels),
                )
            )
        return entries


def _strided(total: int, sample_limit: int) -> np.ndarray:
    """A deterministic, evenly-strided sample of ``range(total)``."""
    stride = max(1, total // max(1, sample_limit))
    return np.arange(0, total, stride, dtype=np.int64)[:sample_limit]


def _footprint(batch: RequestBatch, position: int) -> SampleFootprint:
    """Row ``position`` of ``batch`` as a scalar footprint."""
    return SampleFootprint(
        lod=float(batch.lod[position]),
        anisotropy=1.0,
        probes=int(batch.probes[position]),
        major_du=float(batch.major_du[position]),
        major_dv=float(batch.major_dv[position]),
        major_length=float(batch.major_length[position]),
    )
