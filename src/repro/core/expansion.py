"""Expanding texture requests into texel / parent / child fetch sets.

The cycle model never touches texture *data*; it needs the texel
*coordinates* each request would fetch under each design:

* conventional order (baseline / B-PIM / S-TFIM): the probe-displaced
  bilinear taps of both mip levels -- ``probes x 8`` texels, minus
  hardware coalescing of duplicates;
* A-TFIM: the 8 *parent* texels (aniso disabled), and per parent its
  ``probes`` *child* texels (the in-memory expansion).

The expansion reuses the exact arithmetic of
:mod:`repro.texture.sampling`, so architectural texel counts match the
functional renderer by construction.  Coordinates are resolved to byte
and cache-line addresses through a :class:`~repro.texture.address.TexelAddressMap`.

It comes in two forms.  :meth:`RequestExpander.expand_frame` expands a
whole trace, reading its columns, in a few numpy passes into an
:class:`ExpandedFrame`, CSR arrays (an offsets array plus one flat array
of values) that every design's replay reads by request index; this is
what the simulator runs.  :meth:`RequestExpander.expand` walks one
:class:`~repro.texture.requests.TextureRequest` row in Python and
returns an :class:`ExpandedRequest`: the readable reference that the
columnar form is tested against, element for element and in the same
order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.render.scene import Scene
from repro.texture.address import TexelAddressMap
from repro.texture.batch import (
    TAP_DX,
    TAP_DY,
    RequestBatch,
    bilinear_tap_arrays,
    level_blend_arrays,
    probe_offset_matrix,
)
from repro.texture.mipmap import MipmapChain
from repro.texture.requests import FragmentTrace, TextureRequest
from repro.texture.sampling import (
    child_texel_coords,
    level_blend_for,
    parent_texel_coords,
    probe_offsets,
)


@dataclass(frozen=True)
class ParentTexel:
    """One parent texel as a replay reads it: its cache-line address and
    its children's lines (its mip level and coordinates are in those)."""

    line_address: int
    child_line_addresses: Tuple[int, ...]
    num_children: int


@dataclass(frozen=True)
class ExpandedRequest:
    """All addresses one request touches, under both filter orders."""

    camera_angle: float
    """The request's camera angle, radians (A-TFIM's reuse tag)."""
    conventional_lines: Tuple[int, ...]
    """Unique cache-line addresses of the conventional-order texel set."""
    num_conventional_texels: int
    """Texel fetch count before line coalescing (probes x taps)."""
    parents: Tuple[ParentTexel, ...]
    """The A-TFIM parent texels (empty only for malformed requests)."""
    num_parent_texels: int

    @property
    def unique_child_lines(self) -> Tuple[int, ...]:
        """Child lines after Child Texel Consolidation (dedup across
        parents -- the merge the consolidation buffer performs)."""
        seen: Dict[int, None] = {}
        for parent in self.parents:
            for line in parent.child_line_addresses:
                if line not in seen:
                    seen[line] = None
        return tuple(seen)

    @property
    def total_child_texels(self) -> int:
        return sum(parent.num_children for parent in self.parents)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of segments with these lengths: 0, then running totals."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _segment_take(
    counts: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-lay CSR segments out in ``order``.

    ``counts[j]`` is the length of segment ``j`` of a flat array.
    Returns the gather index that places segments ``order[0]``,
    ``order[1]``, ... back to back, and the offsets of that layout.
    """
    starts = _offsets(counts)[:-1]
    picked = counts[order]
    offsets = _offsets(picked)
    take = np.arange(offsets[-1], dtype=np.int64) + np.repeat(
        starts[order] - offsets[:-1], picked
    )
    return take, offsets


def _first_touch(rows: np.ndarray) -> np.ndarray:
    """Mask of each row's first occurrences, as a first-touch dedup keeps.

    Each value is packed with its flat position into one int64 (value
    above, position below), so one plain sort per row ranks equal values
    by position, and the first of each run of equal values in sorted
    order is the earliest in the row; the positions then scatter the
    mask back in one flat assignment.  Values spread too wide to pack
    take a stable argsort, as
    :func:`~repro.texture.batch._stable_key_order` does.
    """
    count, width = rows.shape
    if width <= 1:
        return np.ones(rows.shape, dtype=bool)
    total = count * width
    shift = (total - 1).bit_length()
    low = int(rows.min())
    if (int(rows.max()) - low) >> (62 - shift):
        order = np.argsort(rows, axis=1, kind="stable")
        ranked = np.take_along_axis(rows, order, axis=1)
        position = order + np.arange(0, total, width)[:, None]
    else:
        packed = np.sort(
            ((rows - low) << shift) | np.arange(total).reshape(rows.shape),
            axis=1,
        )
        ranked = packed >> shift
        position = packed & ((1 << shift) - 1)
    first = np.ones(rows.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    mask = np.empty(total, dtype=bool)
    mask[position.ravel()] = first.ravel()
    return mask.reshape(rows.shape)


@dataclass(frozen=True, eq=False)
class ExpandedFrame:
    """One trace's expansion as CSR arrays, indexed by request.

    Request ``i``'s conventional lines are
    ``lines[line_offsets[i]:line_offsets[i + 1]]`` and its parents are
    rows ``parent_offsets[i]`` up to ``parent_offsets[i + 1]`` of the
    per-parent arrays; parent ``p``'s child lines are
    ``child_lines[child_offsets[p]:child_offsets[p + 1]]``.  Every set
    keeps :meth:`RequestExpander.expand`'s first-touch order, and
    ``frame[i]`` builds that method's :class:`ExpandedRequest` on demand
    (for the scalar references in the tests).  Only what a replay reads
    is kept: no parent's mip level or coordinates.

    The columns are read-only from construction on.  One expansion
    serves every design point of a trace and every design run over a
    camera path (:func:`repro.core.frontend._expand`), so an in-place
    edit would silently change the next design's replay.
    """

    texels: np.ndarray
    """Per request: conventional texel fetches before line coalescing."""
    camera_angles: np.ndarray
    line_offsets: np.ndarray
    lines: np.ndarray
    """Unique conventional-order cache lines, request after request."""
    parent_offsets: np.ndarray
    parent_lines: np.ndarray
    child_counts: np.ndarray
    """Per parent: child texels the Texel Generator makes (its probes)."""
    child_offsets: np.ndarray
    child_lines: np.ndarray
    """Each parent's unique child lines, parent after parent."""

    def __post_init__(self) -> None:
        for column in fields(self):
            getattr(self, column.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.texels)

    def __getitem__(self, index: int) -> ExpandedRequest:
        index = range(len(self))[index]
        start, end = self.line_offsets[index:index + 2].tolist()
        first, last = self.parent_offsets[index:index + 2].tolist()
        bounds = self.child_offsets[first:last + 1].tolist()
        parents = tuple(
            ParentTexel(
                line_address=int(self.parent_lines[parent]),
                child_line_addresses=tuple(
                    self.child_lines[bounds[k]:bounds[k + 1]].tolist()
                ),
                num_children=int(self.child_counts[parent]),
            )
            for k, parent in enumerate(range(first, last))
        )
        return ExpandedRequest(
            camera_angle=float(self.camera_angles[index]),
            conventional_lines=tuple(self.lines[start:end].tolist()),
            num_conventional_texels=int(self.texels[index]),
            parents=parents,
            num_parent_texels=len(parents),
        )

    @classmethod
    def from_requests(
        cls, expansions: Sequence[ExpandedRequest]
    ) -> "ExpandedFrame":
        """The columnar form of a list of per-request expansions.

        The one adaptor for callers that still hold lists;
        :class:`~repro.gpu.pipeline.GpuPipeline` memoises it on the
        list's identity.
        """
        parents = [parent for item in expansions for parent in item.parents]

        def column(values: Iterable[float], dtype: type = np.int64) -> np.ndarray:
            return np.array(list(values), dtype=dtype)

        return cls(
            texels=column(item.num_conventional_texels for item in expansions),
            camera_angles=column(
                (item.camera_angle for item in expansions), np.float64
            ),
            line_offsets=_offsets(
                column(len(item.conventional_lines) for item in expansions)
            ),
            lines=column(
                line for item in expansions for line in item.conventional_lines
            ),
            parent_offsets=_offsets(
                column(len(item.parents) for item in expansions)
            ),
            parent_lines=column(parent.line_address for parent in parents),
            child_counts=column(parent.num_children for parent in parents),
            child_offsets=_offsets(
                column(len(parent.child_line_addresses) for parent in parents)
            ),
            child_lines=column(
                line for parent in parents
                for line in parent.child_line_addresses
            ),
        )


class _Group(NamedTuple):
    """One (texture, probe count) group's expansion, in group row order."""

    texels: np.ndarray
    line_counts: np.ndarray
    lines: np.ndarray
    parent_counts: np.ndarray
    parent_lines: np.ndarray
    child_counts: np.ndarray
    child_line_counts: np.ndarray
    child_lines: np.ndarray


class RequestExpander:
    """Expands requests for one scene's texture set."""

    def __init__(self, scene: Scene, line_bytes: int = 64) -> None:
        self.scene = scene
        self.address_map = TexelAddressMap()
        self.line_bytes = line_bytes
        self._chains: Dict[int, MipmapChain] = {}

    def _chain(self, texture_id: int) -> MipmapChain:
        if texture_id not in self._chains:
            self._chains[texture_id] = self.scene.mipmap_chain(texture_id)
        return self._chains[texture_id]

    def expand(self, request: TextureRequest) -> ExpandedRequest:
        """Compute every address set for one request.

        The scalar reference of :meth:`expand_frame`; with
        ``request.footprint.probes`` replaced by 1 it is also the
        reference of that method's ``aniso_enabled=False`` form.
        """
        chain = self._chain(request.texture_id)
        footprint = request.footprint

        # --- conventional order: probes x bilinear taps per level -------
        conventional_lines: Dict[int, None] = {}
        texel_count = 0
        blend = level_blend_for(chain, footprint.lod)
        levels = [blend.level_low]
        if not blend.is_single_level:
            levels.append(blend.level_high)
        parents = parent_texel_coords(chain, footprint.lod, request.u, request.v)
        parents_by_level: Dict[int, List[Tuple[int, int]]] = {}
        for level, x, y, _weight in parents:
            parents_by_level.setdefault(level, []).append((x, y))
        for level in levels:
            offsets = probe_offsets(footprint, level)
            taps = parents_by_level.get(level, [])
            for dx, dy in offsets:
                for x, y in taps:
                    texel_count += 1
                    line = self.address_map.texel_line(
                        chain, level, x + dx, y + dy, self.line_bytes
                    )
                    conventional_lines.setdefault(line, None)

        # --- A-TFIM order: parents and their children -------------------
        parent_records: List[ParentTexel] = []
        for level, x, y, _weight in parents:
            children = child_texel_coords(footprint, level, x, y)
            child_lines: Dict[int, None] = {}
            for cx, cy in children:
                line = self.address_map.texel_line(
                    chain, level, cx, cy, self.line_bytes
                )
                child_lines.setdefault(line, None)
            parent_records.append(
                ParentTexel(
                    line_address=self.address_map.texel_line(
                        chain, level, x, y, self.line_bytes
                    ),
                    child_line_addresses=tuple(child_lines),
                    num_children=len(children),
                )
            )

        return ExpandedRequest(
            camera_angle=request.camera_angle,
            conventional_lines=tuple(conventional_lines),
            num_conventional_texels=texel_count,
            parents=tuple(parent_records),
            num_parent_texels=len(parent_records),
        )

    def expand_frame(
        self, trace: FragmentTrace, aniso_enabled: bool = True
    ) -> ExpandedFrame:
        """Expand a whole trace at once: :meth:`expand` of every request.

        Reads the trace's columns; no request row is built.  Requests
        are grouped by (texture, probe count), so every group's
        address sets are rectangular arrays, and each group is expanded
        in one vectorised pass.  With ``aniso_enabled=False`` (Fig. 4's
        trilinear-only study) every footprint takes one probe: the
        conventional set collapses to the parent texels and each parent
        is its own single child.
        """
        count = len(trace)
        if count == 0:
            return ExpandedFrame.from_requests([])
        batch = RequestBatch.from_trace(trace)
        if not aniso_enabled:
            batch.probes = np.ones(count, dtype=np.int64)
        texture_ids = trace.texture_id
        members: List[np.ndarray] = []
        groups: List[_Group] = []
        for texture_id in np.unique(texture_ids).tolist():
            in_texture = texture_ids == texture_id
            chain = self._chain(texture_id)
            for probes in np.unique(batch.probes[in_texture]).tolist():
                rows = np.nonzero(in_texture & (batch.probes == probes))[0]
                members.append(rows)
                groups.append(self._expand_group(chain, batch, rows, probes))

        # Groups are laid out one after another; gather each request's
        # segments back into trace order.
        position = np.empty(count, dtype=np.int64)
        position[np.concatenate(members)] = np.arange(count, dtype=np.int64)

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(group, name) for group in groups])

        line_take, line_offsets = _segment_take(joined("line_counts"), position)
        parent_take, parent_offsets = _segment_take(
            joined("parent_counts"), position
        )
        child_take, child_offsets = _segment_take(
            joined("child_line_counts"), parent_take
        )
        return ExpandedFrame(
            texels=joined("texels")[position],
            camera_angles=trace.camera_angle,
            line_offsets=line_offsets,
            lines=joined("lines")[line_take],
            parent_offsets=parent_offsets,
            parent_lines=joined("parent_lines")[parent_take],
            child_counts=joined("child_counts")[parent_take],
            child_offsets=child_offsets,
            child_lines=joined("child_lines")[child_take],
        )

    def _expand_group(
        self,
        chain: MipmapChain,
        batch: RequestBatch,
        rows: np.ndarray,
        probes: int,
    ) -> _Group:
        """:meth:`expand` for requests sharing one texture and probe count.

        Per mip level of the blend (slot 0 the low level, slot 1 the
        high one), the texels form a ``(request, probe, tap)`` array:
        read probe-major it is the conventional walk, read tap-major
        each tap's row is one parent's children.  A single-level request
        repeats its low level in slot 1; those repeats are all
        duplicates, so first-touch dedup drops them from the
        conventional set, and a mask drops their parents.
        """
        count = len(rows)
        u, v = batch.u[rows], batch.v[rows]
        low, high, _weight = level_blend_arrays(chain, batch.lod[rows])
        dual = low != high
        slots = [low, high] if bool(dual.any()) else [low]
        texel_sets, parent_lines = [], []
        for level in slots:
            x0, y0, _weights = bilinear_tap_arrays(u, v, level)
            tap_x = x0[:, None] + TAP_DX
            tap_y = y0[:, None] + TAP_DY
            offset_x, offset_y = probe_offset_matrix(
                level,
                batch.major_du[rows],
                batch.major_dv[rows],
                batch.major_length[rows],
                probes,
            )
            texel_sets.append(self.address_map.texel_lines(
                chain,
                level[:, None, None],
                tap_x[:, None, :] + offset_x[:, :, None],
                tap_y[:, None, :] + offset_y[:, :, None],
                self.line_bytes,
            ))
            parent_lines.append(self.address_map.texel_lines(
                chain, level[:, None], tap_x, tap_y, self.line_bytes
            ))

        walk = np.concatenate(
            [texels.reshape(count, -1) for texels in texel_sets], axis=1
        )
        kept = _first_touch(walk)
        real = np.ones((count, 4 * len(slots)), dtype=bool)
        real[:, 4:] = dual[:, None]
        children = np.stack(
            [texels.transpose(0, 2, 1) for texels in texel_sets], axis=1
        ).reshape(-1, probes)[real.ravel()]
        unique_children = _first_touch(children)
        parent_counts = real.sum(axis=1)
        return _Group(
            texels=probes * parent_counts,
            line_counts=kept.sum(axis=1),
            lines=walk[kept],
            parent_counts=parent_counts,
            parent_lines=np.concatenate(parent_lines, axis=1)[real],
            child_counts=np.full(len(children), probes, dtype=np.int64),
            child_line_counts=unique_children.sum(axis=1),
            child_lines=children[unique_children],
        )
