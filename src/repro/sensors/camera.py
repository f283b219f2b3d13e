"""Model of the AI-deck's Himax HM01B0 camera.

The camera is a grayscale QVGA (320 x 240) sensor. The model provides:

- a pinhole intrinsics description (focal length derived from the
  horizontal field of view),
- a *visibility* test for scene objects (inside the FOV cone, within a
  usable range, line of sight not occluded), and
- the projected bounding box of an object on the image plane, which the
  synthetic Himax renderer and the closed-loop detector model both use.

The drone flies at a roughly constant height with the camera looking
forward, so the projection treats objects as upright cylinders seen from
their side: the horizontal extent comes from the physical radius and the
vertical extent from the physical height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.errors import SensorError
from repro.geometry.raycast import RayCaster
from repro.geometry.vec import Vec2, angle_diff
from repro.world.objects import SceneObject

#: Native Himax HM01B0 resolution used by the paper (QVGA).
HIMAX_WIDTH_PX = 320
HIMAX_HEIGHT_PX = 240

#: Horizontal field of view of the AI-deck camera assembly, radians.
HIMAX_HFOV_RAD = math.radians(65.0)

#: Default flight height of the Crazyflie in the paper's experiments, m.
DEFAULT_FLIGHT_HEIGHT_M = 0.5


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics of a camera with square pixels."""

    width_px: int
    height_px: int
    hfov_rad: float

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise SensorError("non-positive image size")
        if not 0.0 < self.hfov_rad < math.pi:
            raise SensorError("horizontal FOV must be in (0, pi)")

    @cached_property
    def focal_px(self) -> float:
        """Focal length in pixels (same horizontally and vertically).

        Cached: intrinsics are frozen and this sits in the per-frame
        projection path.
        """
        return (self.width_px / 2.0) / math.tan(self.hfov_rad / 2.0)

    @cached_property
    def vfov_rad(self) -> float:
        """Vertical field of view implied by the aspect ratio (cached)."""
        return 2.0 * math.atan((self.height_px / 2.0) / self.focal_px)

    def scaled(self, width_px: int, height_px: int) -> "CameraIntrinsics":
        """Same FOV at a different resolution (for reduced-scale models)."""
        return CameraIntrinsics(width_px, height_px, self.hfov_rad)


#: The paper's camera.
HIMAX_INTRINSICS = CameraIntrinsics(HIMAX_WIDTH_PX, HIMAX_HEIGHT_PX, HIMAX_HFOV_RAD)


@dataclass(frozen=True)
class ObjectObservation:
    """A scene object as seen by the camera at one pose.

    Attributes:
        obj: the observed object.
        distance_m: ground-plane distance from the camera to the object axis.
        bearing_rad: object bearing relative to the camera axis (+ left).
        bbox: pixel bounding box ``(xmin, ymin, xmax, ymax)`` clipped to the
            image.
    """

    obj: SceneObject
    distance_m: float
    bearing_rad: float
    bbox: Tuple[float, float, float, float]

    @property
    def bbox_area_px(self) -> float:
        """Area of the clipped bounding box, px^2."""
        xmin, ymin, xmax, ymax = self.bbox
        return max(0.0, xmax - xmin) * max(0.0, ymax - ymin)


class HimaxCamera:
    """Forward-looking camera rigidly mounted on the drone.

    Args:
        intrinsics: pinhole parameters; defaults to the paper's QVGA setup.
        min_range: objects closer than this are too blurred/defocused to
            detect and are not reported.
        max_range: objects beyond this project to only a few pixels on the
            QVGA sensor (a tin can at 2.2 m is ~12 px tall) and are not
            reported.
        height_m: flight (and thus camera) height over the floor.
    """

    def __init__(
        self,
        intrinsics: CameraIntrinsics = HIMAX_INTRINSICS,
        min_range: float = 0.3,
        max_range: float = 2.2,
        height_m: float = DEFAULT_FLIGHT_HEIGHT_M,
    ):
        if min_range < 0.0 or max_range <= min_range:
            raise SensorError("invalid camera range band")
        self.intrinsics = intrinsics
        self.min_range = min_range
        self.max_range = max_range
        self.height_m = height_m

    def observe(
        self,
        caster: RayCaster,
        position: Vec2,
        heading: float,
        objects: Sequence[SceneObject],
    ) -> List[ObjectObservation]:
        """All objects visible from the given pose.

        An object is visible when its bearing falls inside the horizontal
        FOV, its distance is within ``[min_range, max_range]`` and the ray
        from the camera to the object axis is not blocked by any wall or
        obstacle. The occlusion rays of every candidate go through one
        batched :meth:`RayCaster.line_of_sight_many` call, so a camera
        frame costs a single kernel invocation instead of one cast per
        object; results are bit-identical to :meth:`observe_object`.
        """
        half_fov = self.intrinsics.hfov_rad / 2.0
        candidates = []
        for obj in objects:
            offset = obj.position - position
            distance = offset.norm()
            if not self.min_range <= distance <= self.max_range:
                continue
            bearing = angle_diff(offset.heading(), heading)
            if abs(bearing) > half_fov:
                continue
            candidates.append((obj, distance, bearing))
        if not candidates:
            return []
        unblocked = caster.line_of_sight_many(
            position,
            [obj.position for obj, _, _ in candidates],
            slack=[obj.radius_m + 0.05 for obj, _, _ in candidates],
        )
        visible = []
        for (obj, distance, bearing), clear in zip(candidates, unblocked):
            if not clear:
                continue
            bbox = self._project_bbox(distance, bearing, obj)
            if bbox is None:
                continue
            visible.append(
                ObjectObservation(
                    obj=obj, distance_m=distance, bearing_rad=bearing, bbox=bbox
                )
            )
        return visible

    def observe_object(
        self,
        caster: RayCaster,
        position: Vec2,
        heading: float,
        obj: SceneObject,
    ) -> Optional[ObjectObservation]:
        """Observation of one object, or ``None`` when it is not visible."""
        offset = obj.position - position
        distance = offset.norm()
        if not self.min_range <= distance <= self.max_range:
            return None
        bearing = angle_diff(offset.heading(), heading)
        half_fov = self.intrinsics.hfov_rad / 2.0
        if abs(bearing) > half_fov:
            return None
        if not caster.line_of_sight(position, obj.position, slack=obj.radius_m + 0.05):
            return None
        bbox = self._project_bbox(distance, bearing, obj)
        if bbox is None:
            return None
        return ObjectObservation(obj=obj, distance_m=distance, bearing_rad=bearing, bbox=bbox)

    def _project_bbox(
        self, distance: float, bearing: float, obj: SceneObject
    ) -> Optional[Tuple[float, float, float, float]]:
        """Pinhole projection of an upright cylinder to a pixel box."""
        intr = self.intrinsics
        f = intr.focal_px
        depth = distance * math.cos(bearing)
        if depth <= 1e-6:
            return None
        cx = intr.width_px / 2.0
        cy = intr.height_px / 2.0
        # Image x grows to the right while bearing grows to the left.
        u_center = cx - f * math.tan(bearing)
        half_w = f * obj.radius_m / depth
        # The object stands on the floor; the camera sits at height_m
        # looking horizontally, so the object's base is height_m below the
        # optical axis and its top is (height - height_m) above it. Image y
        # grows downward.
        v_top = cy - f * (obj.height_m - self.height_m) / depth
        v_bottom = cy + f * self.height_m / depth
        xmin = max(0.0, u_center - half_w)
        xmax = min(float(intr.width_px), u_center + half_w)
        ymin = max(0.0, min(v_top, v_bottom))
        ymax = min(float(intr.height_px), max(v_top, v_bottom))
        if xmax - xmin < 1.0 or ymax - ymin < 1.0:
            return None
        return (xmin, ymin, xmax, ymax)
