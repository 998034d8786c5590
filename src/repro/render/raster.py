"""Perspective-correct triangle rasterization with analytic derivatives.

The rasterizer implements the paper's stage (2): it scans triangles into
fragments, interpolates attributes perspective-correctly, performs the
early-Z test against the framebuffer, and -- crucially for this study --
computes the *screen-space derivatives of the texture coordinates*
analytically, because those derivatives determine each fragment's mip LOD
and anisotropy, which in turn determine every texel fetch in the system.

Derivation.  After projection, each attribute ``a`` divided by clip ``w``
is an affine function of screen coordinates: ``(a/w)(x, y)`` and
``(1/w)(x, y)`` are planes.  Writing ``N(x,y) = a/w`` and ``D(x,y) = 1/w``
with gradients ``(Nx, Ny)`` and ``(Dx, Dy)``, the perspective-correct
attribute is ``A = N / D`` and its derivatives follow from the quotient
rule::

    dA/dx = (Nx * D - N * Dx) / D^2

evaluated per pixel -- exact, rather than the 2x2-quad finite differences
real hardware uses (the difference is negligible at the footprint level
and keeps fragments independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.scene import Scene, TexturedTriangle
from repro.texture import npmath
from repro.texture.lod import compute_footprint_batch
from repro.texture.requests import FragmentTrace


@dataclass(frozen=True)
class FragmentBatch:
    """SoA fragment stream: one scanned triangle's fragments as columns.

    The rasterizer emits these directly -- numpy arrays for pixel
    position, texture coordinates, derivatives and camera angle -- and
    :meth:`Rasterizer.rasterize_scene` concatenates them into the frame's
    :class:`~repro.texture.requests.FragmentTrace`.  Depth goes straight
    to the framebuffer's early-Z buffer.
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dudx: np.ndarray
    dvdx: np.ndarray
    dudy: np.ndarray
    dvdy: np.ndarray
    camera_angle: np.ndarray
    texture_id: int

    def __len__(self) -> int:
        return len(self.x)

    @classmethod
    def empty(cls, texture_id: int) -> "FragmentBatch":
        ints = np.empty(0, dtype=np.int64)
        floats = np.empty(0, dtype=np.float64)
        return cls(
            x=ints, y=ints, u=floats, v=floats,
            dudx=floats, dvdx=floats, dudy=floats, dvdy=floats,
            camera_angle=floats, texture_id=texture_id,
        )


@dataclass
class RasterStats:
    """Per-frame rasterization statistics for the pipeline model."""

    triangles_submitted: int = 0
    triangles_clipped_away: int = 0
    triangles_rasterized: int = 0
    fragments_generated: int = 0
    fragments_early_z_killed: int = 0


_CLIP_EPSILON = 1e-4


def _clip_polygon_near(
    vertices: List[np.ndarray], near: float
) -> List[np.ndarray]:
    """Sutherland-Hodgman clip of a clip-space polygon against w > near.

    Vertices are rows of ``[x, y, z, w, attributes...]``; interpolation of
    the attribute tail is linear in clip space, which is exactly correct
    for clipping.
    """
    output: List[np.ndarray] = []
    count = len(vertices)
    for index in range(count):
        current = vertices[index]
        nxt = vertices[(index + 1) % count]
        current_in = current[3] > near
        next_in = nxt[3] > near
        if current_in:
            output.append(current)
        if current_in != next_in:
            t = (near - current[3]) / (nxt[3] - current[3])
            output.append(current + t * (nxt - current))
    return output


class Rasterizer:
    """Tile-based scanning rasterizer with early-Z.

    ``tile_size`` matches Table I's 16x16 fragment tiles; each fragment is
    tagged with its tile, which the pipeline model uses to bind fragment
    work to shader clusters.
    """

    def __init__(self, tile_size: int = 16, max_anisotropy: int = 16,
                 lod_bias: float = 0.0) -> None:
        if tile_size <= 0:
            raise ValueError("tile size must be positive")
        if max_anisotropy < 1:
            raise ValueError("max anisotropy must be >= 1")
        self.tile_size = tile_size
        self.max_anisotropy = max_anisotropy
        self.lod_bias = lod_bias
        self.stats = RasterStats()

    def rasterize_scene(
        self,
        scene: Scene,
        camera: Camera,
        framebuffer: Framebuffer,
    ) -> FragmentTrace:
        """Rasterize every triangle into the frame's :class:`FragmentTrace`.

        The per-triangle :class:`FragmentBatch` columns are concatenated
        in submission order; one :func:`compute_footprint_batch` call
        over the whole frame gives every footprint, and each fragment's
        tile comes from its pixel.  The framebuffer's depth buffer is
        updated so later triangles are early-Z culled against earlier
        ones (the trace still holds fragments that are later overdrawn,
        exactly as a real immediate-mode pipeline would shade them).
        """
        batches = self.rasterize_batches(scene, camera, framebuffer)
        if not batches:
            batches = [FragmentBatch.empty(0)]

        def column(name: str) -> np.ndarray:
            return np.concatenate([getattr(batch, name) for batch in batches])

        x, y = column("x"), column("y")
        return FragmentTrace(
            width=framebuffer.width,
            height=framebuffer.height,
            pixel_x=x,
            pixel_y=y,
            texture_id=np.repeat(
                np.array([b.texture_id for b in batches], dtype=np.int64),
                [len(b) for b in batches],
            ),
            u=column("u"),
            v=column("v"),
            footprint=compute_footprint_batch(
                column("dudx"), column("dvdx"), column("dudy"), column("dvdy"),
                max_anisotropy=self.max_anisotropy, lod_bias=self.lod_bias,
            ),
            camera_angle=column("camera_angle"),
            tile_x=x // self.tile_size,
            tile_y=y // self.tile_size,
            tile_size=self.tile_size,
        )

    def rasterize_batches(
        self,
        scene: Scene,
        camera: Camera,
        framebuffer: Framebuffer,
    ) -> List[FragmentBatch]:
        """Rasterize every triangle into SoA :class:`FragmentBatch` columns.

        Fragments never exist as Python objects here: each scanned fan
        triangle contributes one columnar batch in submission order, and
        the early-Z depth buffer is updated as it goes.
        """
        self.stats = RasterStats()
        width, height = framebuffer.width, framebuffer.height
        view_projection = camera.view_projection(width, height)
        batches: List[FragmentBatch] = []
        for triangle in scene.triangles:
            self.stats.triangles_submitted += 1
            texture = scene.textures[triangle.texture_id]
            emissions = self._rasterize_triangle(
                triangle, texture.width, texture.height,
                view_projection, camera, framebuffer,
            )
            if any(len(batch) for batch in emissions):
                self.stats.triangles_rasterized += 1
            batches.extend(batch for batch in emissions if len(batch))
        return batches

    def _rasterize_triangle(
        self,
        triangle: TexturedTriangle,
        tex_width: int,
        tex_height: int,
        view_projection: np.ndarray,
        camera: Camera,
        framebuffer: Framebuffer,
    ) -> List:
        """Clip and scan one triangle; return per-fan-triangle emissions.

        Each element is what :meth:`_scan_convex_triangle` produced for
        one fan triangle.
        """
        width, height = framebuffer.width, framebuffer.height

        # --- geometry: transform, clip, project ------------------------
        # Homogeneous positions and texel-space UVs for all three
        # vertices at once.  Row-wise this is the same IEEE-754
        # arithmetic as the per-vertex form, so the clip vertices are
        # bit-identical.
        positions = np.concatenate(
            [triangle.vertices, np.ones((3, 1))], axis=1
        )
        uv_texels = triangle.uvs * np.array([tex_width, tex_height])
        clip_vertices: List[np.ndarray] = [
            # Rows of [x, y, z, w, u, v, wx, wy, wz]: clip position,
            # then the attribute tail (u, v in texel units; world
            # position for the per-pixel view vector).
            np.concatenate([
                view_projection @ positions[index],
                uv_texels[index],
                triangle.vertices[index],
            ])
            for index in range(3)
        ]

        clipped = _clip_polygon_near(clip_vertices, camera.near)
        if len(clipped) < 3:
            self.stats.triangles_clipped_away += 1
            return []

        normal = triangle.normal
        emissions: List = []
        # Fan-triangulate the clipped polygon.
        for fan in range(1, len(clipped) - 1):
            trio = [clipped[0], clipped[fan], clipped[fan + 1]]
            emissions.append(
                self._scan_convex_triangle(
                    trio, normal, triangle.texture_id, camera, framebuffer
                )
            )
        return emissions

    def _scan_convex_triangle(
        self,
        trio: Sequence[np.ndarray],
        normal: np.ndarray,
        texture_id: int,
        camera: Camera,
        framebuffer: Framebuffer,
    ):
        """Scan one convex screen triangle through :meth:`_emit_fragments`.

        Returns its :class:`FragmentBatch`, or an empty list for a
        degenerate triangle.
        """
        width, height = framebuffer.width, framebuffer.height

        # Screen coordinates (pixel centres at integer + 0.5).
        screen = np.zeros((3, 2))
        inv_w = np.zeros(3)
        for index, vertex in enumerate(trio):
            w = vertex[3]
            if w <= 0:
                return []  # guarded by clipping; degenerate numeric case
            ndc_x = vertex[0] / w
            ndc_y = vertex[1] / w
            screen[index, 0] = (ndc_x * 0.5 + 0.5) * width
            screen[index, 1] = (0.5 - ndc_y * 0.5) * height
            inv_w[index] = 1.0 / w

        area = _edge(screen[0], screen[1], screen[2])
        if abs(area) < 1e-12:
            return []
        if area < 0:
            # Normalise winding so barycentrics are positive inside.
            screen = screen[[0, 2, 1]]
            inv_w = inv_w[[0, 2, 1]]
            trio = [trio[0], trio[2], trio[1]]
            area = -area

        min_x = max(0, int(math.floor(screen[:, 0].min())))
        max_x = min(width - 1, int(math.ceil(screen[:, 0].max())))
        min_y = max(0, int(math.floor(screen[:, 1].min())))
        max_y = min(height - 1, int(math.ceil(screen[:, 1].max())))
        if min_x > max_x or min_y > max_y:
            return []

        xs = np.arange(min_x, max_x + 1) + 0.5
        ys = np.arange(min_y, max_y + 1) + 0.5
        grid_x, grid_y = np.meshgrid(xs, ys)

        w0 = _edge_grid(screen[1], screen[2], grid_x, grid_y)
        w1 = _edge_grid(screen[2], screen[0], grid_x, grid_y)
        w2 = _edge_grid(screen[0], screen[1], grid_x, grid_y)
        # Top-left fill rule: a pixel centre lying exactly on an edge is
        # covered only if that edge is a top or left edge, so adjacent
        # triangles sharing an edge never both shade the pixel.
        inside = (
            _covered(w0, screen[1], screen[2])
            & _covered(w1, screen[2], screen[0])
            & _covered(w2, screen[0], screen[1])
        )
        if not inside.any():
            return []
        bary0 = w0 / area
        bary1 = w1 / area
        bary2 = w2 / area

        # Plane (affine) interpolants in screen space: 1/w and attr/w.
        # Gradients are constant per triangle; compute them from the
        # barycentric gradients.
        attrs_over_w = np.stack(
            [trio[i][4:] * inv_w[i] for i in range(3)]
        )  # (3, n_attrs): u/w, v/w, wx/w, wy/w, wz/w
        denom = bary0 * inv_w[0] + bary1 * inv_w[1] + bary2 * inv_w[2]  # 1/w

        # Barycentric gradients wrt screen x/y (constants).
        grad_b = _barycentric_gradients(screen, area)
        grad_denom_x = (
            grad_b[0][0] * inv_w[0] + grad_b[1][0] * inv_w[1] + grad_b[2][0] * inv_w[2]
        )
        grad_denom_y = (
            grad_b[0][1] * inv_w[0] + grad_b[1][1] * inv_w[1] + grad_b[2][1] * inv_w[2]
        )

        rows, cols = np.nonzero(inside)
        return self._emit_fragments(
            rows, cols, bary0, bary1, bary2, denom, attrs_over_w,
            grad_b, grad_denom_x, grad_denom_y,
            min_x, min_y, normal, texture_id, camera, framebuffer,
        )

    def _emit_fragments(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        bary0: np.ndarray,
        bary1: np.ndarray,
        bary2: np.ndarray,
        denom: np.ndarray,
        attrs_over_w: np.ndarray,
        grad_b: List[Tuple[float, float]],
        grad_denom_x: float,
        grad_denom_y: float,
        min_x: int,
        min_y: int,
        normal: np.ndarray,
        texture_id: int,
        camera: Camera,
        framebuffer: Framebuffer,
    ) -> FragmentBatch:
        """Batched fragment emission: interpolation, early-Z and the
        analytic derivatives as whole-array operations, emitted as one
        SoA :class:`FragmentBatch`.

        Bit-identical to the per-pixel reference emitter in
        ``tests/reference.py``: every arithmetic step is the same
        IEEE-754 expression applied elementwise, pixels within one
        triangle are unique (so the vectorised early-Z equals the
        sequential test), and the camera angle's arc cosine is the same
        canonical ``np.arccos`` kernel the reference calls through
        :mod:`repro.texture.npmath` (numpy diverges from libm in the last
        ulp on some inputs; both sidestep that by sharing the numpy
        kernel).
        """
        if rows.size == 0:
            return FragmentBatch.empty(texture_id)
        b0 = bary0[rows, cols]
        b1 = bary1[rows, cols]
        b2 = bary2[rows, cols]
        d = denom[rows, cols]
        positive = d > 0
        self.stats.fragments_generated += int(positive.sum())
        rows, cols, b0, b1, b2, d = (
            rows[positive], cols[positive],
            b0[positive], b1[positive], b2[positive], d[positive],
        )
        if rows.size == 0:
            return FragmentBatch.empty(texture_id)
        w_value = 1.0 / d
        pixel_x = min_x + cols
        pixel_y = min_y + rows
        depth = w_value  # camera-space depth; smaller is closer
        visible = framebuffer.depth_test_batch(pixel_x, pixel_y, depth)
        self.stats.fragments_early_z_killed += int(visible.size - visible.sum())
        if not visible.any():
            return FragmentBatch.empty(texture_id)
        pixel_x, pixel_y, depth, w_value = (
            pixel_x[visible], pixel_y[visible], depth[visible], w_value[visible],
        )
        b0, b1, b2 = b0[visible], b1[visible], b2[visible]
        # Pixel coordinates within one triangle are unique (top-left fill
        # rule), so this scatter has no duplicate indices to order.
        framebuffer.depth[pixel_y, pixel_x] = depth

        numerators = (
            b0[:, None] * attrs_over_w[0]
            + b1[:, None] * attrs_over_w[1]
            + b2[:, None] * attrs_over_w[2]
        )
        attrs = numerators * w_value[:, None]
        u = attrs[:, 0]
        v = attrs[:, 1]
        world = attrs[:, 2:5]

        # Analytic derivatives via the quotient rule (triangle constants).
        grad_num_x = (
            grad_b[0][0] * attrs_over_w[0]
            + grad_b[1][0] * attrs_over_w[1]
            + grad_b[2][0] * attrs_over_w[2]
        )
        grad_num_y = (
            grad_b[0][1] * attrs_over_w[0]
            + grad_b[1][1] * attrs_over_w[1]
            + grad_b[2][1] * attrs_over_w[2]
        )
        dudx = (grad_num_x[0] - u * grad_denom_x) * w_value
        dvdx = (grad_num_x[1] - v * grad_denom_x) * w_value
        dudy = (grad_num_y[0] - u * grad_denom_y) * w_value
        dvdy = (grad_num_y[1] - v * grad_denom_y) * w_value

        # Camera angle: same expression tree as camera_angle_from_normal,
        # batched.  The arc cosine is the canonical np.arccos kernel both
        # paths share (repro.texture.npmath), so single-element and
        # batched evaluation agree bit for bit.
        nx, ny, nz = normal[0], normal[1], normal[2]
        view = camera.position - world
        vx, vy, vz = view[:, 0], view[:, 1], view[:, 2]
        norm_n = math.sqrt(nx * nx + ny * ny + nz * nz)
        norm_v = np.sqrt(vx * vx + vy * vy + vz * vz)
        if norm_n == 0.0 or bool(np.any(norm_v == 0.0)):
            raise ValueError("zero-length vector")
        cosine = (nx * vx + ny * vy + nz * vz) / (norm_n * norm_v)
        cosine = np.minimum(1.0, np.maximum(-1.0, cosine))
        camera_angle = npmath.acos_batch(np.abs(cosine))

        return FragmentBatch(
            x=pixel_x,
            y=pixel_y,
            u=u,
            v=v,
            dudx=dudx,
            dvdx=dvdx,
            dudy=dudy,
            dvdy=dvdy,
            camera_angle=camera_angle,
            texture_id=texture_id,
        )


def _edge(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Signed doubled area of triangle (a, b, c)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _edge_grid(
    a: np.ndarray, b: np.ndarray, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Edge function of segment (a, b) evaluated on a pixel grid."""
    return (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])


_EDGE_EPSILON = 1e-9


def _covered(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coverage of one edge under the top-left fill rule.

    Interior (w > 0) always covers; an exactly-on-edge pixel (w ~ 0)
    covers only when (a, b) is a top edge (horizontal, pointing left in
    our y-down, positive-area orientation) or a left edge (pointing up).
    The opposing triangle traverses the shared edge in the opposite
    direction, so exactly one of the two claims the pixel.
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    top_left = dy < 0 or (dy == 0 and dx < 0)
    on_edge = np.abs(w) <= _EDGE_EPSILON
    if top_left:
        return (w > 0) | on_edge
    return (w > 0) & ~on_edge


def _barycentric_gradients(
    screen: np.ndarray, area: float
) -> List[Tuple[float, float]]:
    """d(bary_i)/dx and /dy -- constants over the triangle."""
    (x0, y0), (x1, y1), (x2, y2) = screen
    return [
        ((y1 - y2) / area, (x2 - x1) / area),
        ((y2 - y0) / area, (x0 - x2) / area),
        ((y0 - y1) / area, (x1 - x0) / area),
    ]
