"""Camera paths and multi-frame workload sequences.

The paper's benchmarks "run to completion" over captured game traces --
many frames with a moving camera.  Single-frame simulation (plus warm-up)
captures steady-state cache behaviour; this module adds genuine
multi-frame sequences so cross-frame effects are first-class:

* parent texels cached in frame N are reused (or angle-recalculated) in
  frame N+1 after the camera moved -- the situation section V-C's
  "parent texels from different frames have the same fetching address
  but different camera angles" describes;
* traffic and energy can be reported per-sequence, as a game run would.

A :class:`CameraPath` is a deterministic function of the frame index, so
sequences are exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.render.camera import Camera


@dataclass(frozen=True)
class CameraKeyframe:
    """A camera pose at one point on a path."""

    position: Sequence[float]
    target: Sequence[float]

    def camera(self, template: Camera) -> Camera:
        """Instantiate a camera with this pose and the template's lens."""
        return Camera(
            position=np.asarray(self.position, dtype=np.float64),
            target=np.asarray(self.target, dtype=np.float64),
            up=template.up,
            fov_y=template.fov_y,
            near=template.near,
            far=template.far,
        )


class CameraPath:
    """A sequence of camera poses interpolated across frames."""

    def __init__(self, keyframes: Sequence[CameraKeyframe]) -> None:
        if len(keyframes) < 2:
            raise ValueError("a path needs at least two keyframes")
        self.keyframes = list(keyframes)

    def pose(self, t: float) -> CameraKeyframe:
        """Linearly interpolated pose at ``t`` in [0, 1]."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must be in [0, 1]")
        scaled = t * (len(self.keyframes) - 1)
        index = min(int(scaled), len(self.keyframes) - 2)
        fraction = scaled - index
        a, b = self.keyframes[index], self.keyframes[index + 1]
        position = [
            (1 - fraction) * pa + fraction * pb
            for pa, pb in zip(a.position, b.position)
        ]
        target = [
            (1 - fraction) * ta + fraction * tb
            for ta, tb in zip(a.target, b.target)
        ]
        return CameraKeyframe(position=position, target=target)

    def cameras(self, template: Camera, num_frames: int) -> List[Camera]:
        """Materialise ``num_frames`` cameras along the path."""
        if num_frames < 1:
            raise ValueError("need at least one frame")
        if num_frames == 1:
            return [self.pose(0.0).camera(template)]
        return [
            self.pose(frame / (num_frames - 1)).camera(template)
            for frame in range(num_frames)
        ]


def walk_forward(distance: float = 6.0) -> Callable[[Camera], CameraPath]:
    """A path factory: walk the camera forward along its view direction.

    The dominant camera motion of corridor shooters; parent texels ahead
    of the camera change their viewing angle gradually, which is exactly
    the angle-threshold policy's bread and butter.
    """

    def build(camera: Camera) -> CameraPath:
        forward = camera.forward
        start = CameraKeyframe(
            position=tuple(camera.position), target=tuple(camera.target)
        )
        end = CameraKeyframe(
            position=tuple(camera.position + forward * distance),
            target=tuple(camera.target + forward * distance),
        )
        return CameraPath([start, end])

    return build


def strafe(distance: float = 4.0) -> Callable[[Camera], CameraPath]:
    """A path factory: slide the camera sideways, keeping the target.

    Lateral motion sweeps the camera angle of every visible surface --
    the stress case for angle-tagged reuse.
    """

    def build(camera: Camera) -> CameraPath:
        forward = camera.forward
        right = np.cross(forward, camera.up)
        norm = float(np.linalg.norm(right))
        if norm == 0.0:
            raise ValueError("degenerate camera basis")
        right = right / norm
        half = right * (distance / 2.0)
        start = CameraKeyframe(
            position=tuple(camera.position - half), target=tuple(camera.target)
        )
        end = CameraKeyframe(
            position=tuple(camera.position + half), target=tuple(camera.target)
        )
        return CameraPath([start, end])

    return build


def orbit(degrees: float = 30.0) -> Callable[[Camera], CameraPath]:
    """A path factory: orbit around the target in the horizontal plane."""

    def build(camera: Camera) -> CameraPath:
        offset = camera.position - camera.target
        keyframes = []
        steps = 5
        for step in range(steps):
            angle = math.radians(degrees) * (step / (steps - 1) - 0.5)
            cos_a, sin_a = math.cos(angle), math.sin(angle)
            rotated = np.array([
                cos_a * offset[0] + sin_a * offset[2],
                offset[1],
                -sin_a * offset[0] + cos_a * offset[2],
            ])
            keyframes.append(
                CameraKeyframe(
                    position=tuple(camera.target + rotated),
                    target=tuple(camera.target),
                )
            )
        return CameraPath(keyframes)

    return build
