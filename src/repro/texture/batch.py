"""Batched (numpy-vectorised) texture filtering kernels.

The scalar kernels in :mod:`repro.texture.sampling` walk one fragment at
a time, one texel tap at a time — fine as a readable hardware reference,
hopeless as the inner loop of a figure suite that filters hundreds of
thousands of fragments.  This module re-expresses the same math over
*arrays of fragments*: taps are gathered with fancy indexing and blended
with broadcast multiplies, so one numpy call replaces thousands of
Python-level tap loops.

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
  ``np.rint``) of the same products.

The scalar functions stay the oracle: ``tests/texture/test_batch.py``
asserts ``np.array_equal`` (exact, every bit) between the two paths, and
the drain-time ``batch-fetch-parity`` invariant
(:func:`repro.analysis.invariants.check_batch_scalar_parity`) re-checks
a deterministic sample of every batched render when
``REPRO_CHECK_INVARIANTS=1``.

Grouping strategy: fragments are partitioned by probe count, and within
each trilinear stage by mip level.  Partitioning never changes results —
all arithmetic is per-fragment elementwise — it only keeps gathers
rectangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.texture.lod import SampleFootprint
from repro.texture.mipmap import MipmapChain
from repro.texture.requests import TextureRequest
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

    @classmethod
    def from_footprints(
        cls,
        footprints: Sequence[SampleFootprint],
        us: Sequence[float],
        vs: Sequence[float],
    ) -> "RequestBatch":
        return cls(
            u=np.asarray(us, dtype=np.float64),
            v=np.asarray(vs, dtype=np.float64),
            lod=np.array([f.lod for f in footprints], dtype=np.float64),
            probes=np.array([f.probes for f in footprints], dtype=np.int64),
            major_du=np.array([f.major_du for f in footprints], dtype=np.float64),
            major_dv=np.array([f.major_dv for f in footprints], dtype=np.float64),
            major_length=np.array(
                [f.major_length for f in footprints], dtype=np.float64
            ),
        )

    @classmethod
    def from_requests(cls, requests: Sequence[TextureRequest]) -> "RequestBatch":
        return cls.from_footprints(
            [request.footprint for request in requests],
            [request.u for request in requests],
            [request.v for request in requests],
        )


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
        """Record one tap gather: wrapped coordinates at one mip level."""
        self._chunks.append(
            (
                np.asarray(request_indices, dtype=np.int64),
                np.full(len(xs), level, dtype=np.int64),
                np.asarray(xs, dtype=np.int64),
                np.asarray(ys, dtype=np.int64),
            )
        )

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


def probe_offset_arrays(
    levels: np.ndarray,
    major_du: np.ndarray,
    major_dv: np.ndarray,
    major_length: np.ndarray,
    probes: int,
    probe_index: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`~repro.texture.sampling.probe_offsets` at one
    probe index, for fragments sharing one probe count.

    ``np.rint`` rounds half to even exactly as Python's ``round`` does,
    so the integer displacements match the scalar path bit for bit.
    """
    if probes == 1:
        zero = np.zeros(len(levels), dtype=np.int64)
        return zero, zero
    length_at_level = major_length / np.ldexp(1.0, levels.astype(np.int64))
    spacing = length_at_level / probes
    distance = (probe_index - (probes - 1) / 2.0) * spacing
    dx = np.rint(distance * major_du).astype(np.int64)
    dy = np.rint(distance * major_dv).astype(np.int64)
    return dx, dy


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
    fetch time.  ``offset_x``/``offset_y`` are per-fragment integer
    probe displacements.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    count = len(u)
    clamped = np.clip(np.asarray(levels, dtype=np.int64), 0, chain.max_level)
    if offset_x is None:
        offset_x = np.zeros(count, dtype=np.int64)
    if offset_y is None:
        offset_y = np.zeros(count, dtype=np.int64)
    out = np.zeros((count, 4), dtype=np.float64)
    for level in np.unique(clamped):
        sel = np.nonzero(clamped == level)[0]
        mip = chain.level(int(level))
        scale = np.ldexp(1.0, mip.level)
        lu = u[sel] / scale
        lv = v[sel] / scale
        su = lu - 0.5
        sv = lv - 0.5
        x0f = np.floor(su)
        y0f = np.floor(sv)
        fx = su - x0f
        fy = sv - y0f
        x0 = x0f.astype(np.int64) + offset_x[sel]
        y0 = y0f.astype(np.int64) + offset_y[sel]
        taps = (
            (x0, y0, (1.0 - fx) * (1.0 - fy)),
            (x0 + 1, y0, fx * (1.0 - fy)),
            (x0, y0 + 1, (1.0 - fx) * fy),
            (x0 + 1, y0 + 1, fx * fy),
        )
        acc = np.zeros((len(sel), 4), dtype=np.float64)
        for tap_x, tap_y, tap_weight in taps:
            xs = tap_x % mip.width
            ys = tap_y % mip.height
            if recorder is not None and request_indices is not None:
                recorder.add(request_indices[sel], mip.level, xs, ys)
            acc += tap_weight[:, None] * mip.data[ys, xs]
        out[sel] = acc
    return out


def trilinear_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    probe_index: Optional[int] = None,
    subset: Optional[np.ndarray] = None,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
    blend: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Trilinear filter a fragment batch (optionally one aniso probe).

    Mirrors :func:`~repro.texture.sampling.trilinear_sample`: each
    fragment blends the bilinear results of its two mip levels with its
    fractional LOD weight; with ``probe_index`` given, each level's taps
    are displaced by that probe's integer offset at that level.
    Single-level fragments take the low bilinear result directly (no
    zero-weight blend arithmetic), and their high level is neither
    fetched nor recorded — exactly as the scalar path behaves.

    ``subset`` restricts work to those batch positions (default: all).
    ``blend`` optionally supplies precomputed
    :func:`level_blend_arrays` output for the subset, so callers that
    filter the same fragments once per probe (the anisotropic loop)
    don't re-derive an identical blend every probe.
    """
    if subset is None:
        subset = np.arange(len(batch), dtype=np.int64)
    if request_indices is None:
        request_indices = subset
    u = batch.u[subset]
    v = batch.v[subset]
    if blend is None:
        blend = level_blend_arrays(chain, batch.lod[subset])
    low, high, weight = blend

    def offsets_for(levels: np.ndarray, sel: np.ndarray) -> Tuple[
        Optional[np.ndarray], Optional[np.ndarray]
    ]:
        if probe_index is None:
            return None, None
        dx = np.zeros(len(sel), dtype=np.int64)
        dy = np.zeros(len(sel), dtype=np.int64)
        probe_counts = batch.probes[subset][sel]
        for count in np.unique(probe_counts):
            if probe_index >= count:
                raise IndexError(
                    f"probe index {probe_index} out of range for "
                    f"{int(count)}-probe footprint"
                )
            group = np.nonzero(probe_counts == count)[0]
            rows = subset[sel[group]]
            dx[group], dy[group] = probe_offset_arrays(
                levels[group],
                batch.major_du[rows],
                batch.major_dv[rows],
                batch.major_length[rows],
                int(count),
                probe_index,
            )
        return dx, dy

    everyone = np.arange(len(subset), dtype=np.int64)
    low_dx, low_dy = offsets_for(low, everyone)
    low_color = bilinear_batch(
        chain, low, u, v, low_dx, low_dy, request_indices, recorder
    )
    single = (weight == 0.0) | (low == high)
    if bool(np.all(single)):
        return low_color
    dual = np.nonzero(~single)[0]
    high_dx, high_dy = offsets_for(high[dual], dual)
    high_color = bilinear_batch(
        chain,
        high[dual],
        u[dual],
        v[dual],
        high_dx,
        high_dy,
        request_indices[dual],
        recorder,
    )
    dual_weight = weight[dual]
    out = low_color
    out[dual] = (
        low_color[dual] * (1.0 - dual_weight)[:, None]
        + high_color * dual_weight[:, None]
    )
    return out


def anisotropic_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Conventional-order anisotropic filter over a fragment batch.

    Mirrors :func:`~repro.texture.sampling.anisotropic_sample`:
    fragments are grouped by probe count; each group accumulates its
    trilinear probes in index order and divides by the count once.
    """
    if request_indices is None:
        request_indices = np.arange(len(batch), dtype=np.int64)
    out = np.zeros((len(batch), 4), dtype=np.float64)
    for count in np.unique(batch.probes):
        sel = np.nonzero(batch.probes == count)[0]
        blend = level_blend_arrays(chain, batch.lod[sel])
        acc = np.zeros((len(sel), 4), dtype=np.float64)
        for index in range(int(count)):
            acc += trilinear_batch(
                chain,
                batch,
                probe_index=index,
                subset=sel,
                request_indices=request_indices[sel],
                recorder=recorder,
                blend=blend,
            )
        out[sel] = acc / int(count)
    return out


def isotropic_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Trilinear-only batch filter (anisotropic disabled), the batched
    counterpart of ``TextureSampler.sample_isotropic``."""
    if request_indices is None:
        request_indices = np.arange(len(batch), dtype=np.int64)
    return trilinear_batch(
        chain, batch, probe_index=None,
        request_indices=request_indices, recorder=recorder,
    )


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
    ) -> None:
        """Drain-time parity check of the batch path against the oracle.

        Re-filters a deterministic, evenly-strided sample of the batch
        through both paths with fetch recording on, then asserts (via
        :func:`repro.analysis.invariants.check_batch_scalar_parity`)
        that colors are bit-identical and per-fragment texel fetch sets
        (and therefore counts) agree.  Raises
        :class:`repro.analysis.invariants.InvariantError` on any
        divergence.
        """
        from repro.analysis.invariants import check_batch_scalar_parity
        from repro.texture.sampling import (
            _FetchRecorder,
            anisotropic_sample,
            trilinear_sample,
        )

        total = len(batch)
        if total == 0:
            return
        stride = max(1, total // max(1, sample_limit))
        picked = np.arange(0, total, stride, dtype=np.int64)[:sample_limit]
        sub = RequestBatch(
            u=batch.u[picked],
            v=batch.v[picked],
            lod=batch.lod[picked],
            probes=batch.probes[picked],
            major_du=batch.major_du[picked],
            major_dv=batch.major_dv[picked],
            major_length=batch.major_length[picked],
        )
        batch_recorder = BatchFetchRecorder()
        if isotropic:
            batch_colors = isotropic_batch(self.chain, sub, recorder=batch_recorder)
        else:
            batch_colors = anisotropic_batch(
                self.chain, sub, recorder=batch_recorder
            )
        batch_texels = batch_recorder.request_texels()

        entries = []
        for position in range(len(sub)):
            scalar_recorder = _FetchRecorder()
            footprint = SampleFootprint(
                lod=float(sub.lod[position]),
                anisotropy=1.0,
                probes=int(sub.probes[position]),
                major_du=float(sub.major_du[position]),
                major_dv=float(sub.major_dv[position]),
                major_length=float(sub.major_length[position]),
            )
            if isotropic:
                scalar_color = trilinear_sample(
                    self.chain,
                    footprint.lod,
                    float(sub.u[position]),
                    float(sub.v[position]),
                    recorder=scalar_recorder,
                )
            else:
                scalar_color = anisotropic_sample(
                    self.chain,
                    footprint,
                    float(sub.u[position]),
                    float(sub.v[position]),
                    recorder=scalar_recorder,
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
        check_batch_scalar_parity(entries)
