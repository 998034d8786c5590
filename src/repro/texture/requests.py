"""Trace record types exchanged between the renderer and cycle model.

The rasterizer emits one :class:`FragmentTrace` per frame: every visible
fragment's texture lookup -- the footprint (LOD, anisotropy, probe axis),
the camera angle, and which texture is addressed -- as columns in
submission order.  The functional shader, the cycle model's request
expander and the GPU pipeline all read those columns, and the expander
uses the same sampling math as the functional path, so functional and
architectural texel counts agree by construction.  A
:class:`TextureRequest` is one row of a trace, built on demand through
:attr:`FragmentTrace.requests` for the scalar references.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import List, Union

import numpy as np

from repro.texture.lod import FootprintBatch, SampleFootprint


@dataclass(frozen=True)
class TextureRequest:
    """One fragment's texture lookup, as issued by a unified shader."""

    pixel_x: int
    pixel_y: int
    texture_id: int
    u: float
    v: float
    """Sample position in level-0 texel units."""
    footprint: SampleFootprint
    camera_angle: float
    """Angle between surface normal and view vector, radians."""
    tile_x: int = 0
    tile_y: int = 0
    """Rasterizer tile the fragment belongs to (drives cluster binding)."""

    def __post_init__(self) -> None:
        if self.texture_id < 0:
            raise ValueError("negative texture id")
        if self.camera_angle < 0:
            raise ValueError("negative camera angle")


@dataclass(frozen=True, eq=False)
class FragmentTrace:
    """One frame's texture requests as columns, in submission order.

    Every array holds one entry per fragment, and entry ``i`` of all of
    them is the frame's ``i``-th :class:`TextureRequest`.  The columns
    are checked as a request's fields are: no texture id and no camera
    angle may be negative.  They are read-only from construction on, so
    what is derived from a trace and memoised on its identity (its
    expansion, its cluster partition, a path's replay columns) cannot go
    stale through an in-place edit.
    """

    width: int
    height: int
    pixel_x: np.ndarray
    pixel_y: np.ndarray
    texture_id: np.ndarray
    u: np.ndarray
    v: np.ndarray
    """Sample positions in level-0 texel units."""
    footprint: FootprintBatch
    camera_angle: np.ndarray
    """Angle between surface normal and view vector, radians."""
    tile_x: np.ndarray
    tile_y: np.ndarray
    """Rasterizer tile of each fragment (drives cluster binding)."""
    tile_size: int = 16
    """The rasterizer tile size the tile columns use."""

    def __post_init__(self) -> None:
        if bool(np.any(self.texture_id < 0)):
            raise ValueError("negative texture id")
        if bool(np.any(self.camera_angle < 0)):
            raise ValueError("negative camera angle")
        for owner in (self, self.footprint):
            for column in fields(owner):
                value = getattr(owner, column.name)
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False

    def __len__(self) -> int:
        return len(self.u)

    @property
    def num_fragments(self) -> int:
        return len(self)

    @property
    def requests(self) -> Sequence[TextureRequest]:
        """The trace as a read-only sequence of rows.

        ``len()`` is free; each access builds one :class:`TextureRequest`
        from the columns, and nothing is kept.
        """
        return _RequestRows(self)


class _RequestRows(Sequence):
    """The :attr:`FragmentTrace.requests` view."""

    __slots__ = ("_trace",)

    def __init__(self, trace: FragmentTrace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TextureRequest, List[TextureRequest]]:
        picked = range(len(self))[index]
        if isinstance(picked, range):
            return [self[row] for row in picked]
        trace = self._trace
        return TextureRequest(
            pixel_x=int(trace.pixel_x[picked]),
            pixel_y=int(trace.pixel_y[picked]),
            texture_id=int(trace.texture_id[picked]),
            u=float(trace.u[picked]),
            v=float(trace.v[picked]),
            footprint=trace.footprint.footprint(picked),
            camera_angle=float(trace.camera_angle[picked]),
            tile_x=int(trace.tile_x[picked]),
            tile_y=int(trace.tile_y[picked]),
        )
