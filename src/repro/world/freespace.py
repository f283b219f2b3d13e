"""Free-space rasters, flood fill, and reachable-cell masks.

The scenario generators (:mod:`repro.sim.generators`) introduced a
vectorized free-space raster plus a frontier flood fill to prove that
every generated world is flyable. The same primitives answer a second
question the exploration metrics need: *which cells of a coverage grid
can the drone actually reach from its start pose?* A coverage metric
that divides by ``nx * ny`` counts cells inside shelves, walls and
sealed pockets against the drone, so generated mazes and warehouses can
never report 1.0 and numbers are not comparable across scenarios. This
module therefore lives in :mod:`repro.world`, below both consumers:

- :func:`free_space_mask` -- conservative margin-aware raster of a room,
- :func:`flood_fill` -- the 4-connected component of a seed cell,
- :func:`reachable_free_mask` -- both steps fused, seeded at a pose,
- :func:`reachable_cell_mask` -- the reachable set projected onto a
  coverage grid (what :class:`~repro.mapping.occupancy.OccupancyGrid`
  normalizes by).

``free_space_mask`` and ``flood_fill`` moved here verbatim from
``repro.sim.generators`` (which re-exports them): the rasters, and
therefore every generated world's ``Scenario.content_hash()``, are
bit-identical to the pre-extraction ones.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SimError
from repro.geometry.shapes import AABB, Circle
from repro.geometry.vec import Vec2
from repro.world.room import Room

#: Clearance (metres) the validity raster requires from walls and
#: obstacles -- matches the start-pose margin of ``Scenario.validate``
#: and exceeds the Crazyflie collision radius (0.07 m).
VALIDATION_MARGIN_M = 0.1

#: Finest raster edge used when projecting reachability onto a coverage
#: grid; at or below the generators' wall thickness (0.1 m) so thin
#: partition walls always block at least one raster row/column.
FINE_RESOLUTION_M = 0.1

#: :func:`reachable_cell_mask` results by room, then by the rest of the
#: arguments; an entry lives as long as its room.
_cell_masks: "weakref.WeakKeyDictionary[Room, Dict[tuple, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


def free_space_mask(
    room: Room, resolution: float, margin: float = VALIDATION_MARGIN_M
) -> np.ndarray:
    """Conservative free-space raster of ``room`` at ``resolution``.

    A cell is marked free only when its centre keeps at least ``margin``
    clearance from the walls and every obstacle (axis-aligned boxes are
    inflated by ``margin`` on each side, a conservative superset of the
    true Euclidean margin band). Used by the generator validity checks,
    object placement and coverage normalization.

    Args:
        room: the world to rasterize.
        resolution: approximate cell edge, metres.
        margin: required clearance, metres.

    Returns:
        A ``(ny, nx)`` boolean array; entry ``[iy, ix]`` covers the cell
        centred at ``((ix + 0.5) * width / nx, (iy + 0.5) * length / ny)``.
    """
    nx = max(1, int(math.ceil(room.width / resolution)))
    ny = max(1, int(math.ceil(room.length / resolution)))
    xs = (np.arange(nx) + 0.5) * (room.width / nx)
    ys = (np.arange(ny) + 0.5) * (room.length / ny)
    free = np.ones((ny, nx), dtype=bool)
    free &= ((xs >= margin) & (xs <= room.width - margin))[None, :]
    free &= (((ys >= margin) & (ys <= room.length - margin))[:, None])
    for obs in room.obstacles:
        shape = obs.shape
        if isinstance(shape, AABB):
            xm = (xs >= shape.xmin - margin) & (xs <= shape.xmax + margin)
            ym = (ys >= shape.ymin - margin) & (ys <= shape.ymax + margin)
            if xm.any() and ym.any():
                free[np.ix_(ym, xm)] = False
        elif isinstance(shape, Circle):
            r = shape.radius + margin
            xm = (xs >= shape.center.x - r) & (xs <= shape.center.x + r)
            ym = (ys >= shape.center.y - r) & (ys <= shape.center.y + r)
            if xm.any() and ym.any():
                dx = xs[xm] - shape.center.x
                dy = ys[ym] - shape.center.y
                free[np.ix_(ym, xm)] &= (
                    dy[:, None] ** 2 + dx[None, :] ** 2 > r * r
                )
        else:  # pragma: no cover - no other shapes exist
            raise SimError(f"cannot rasterize shape {type(shape).__name__}")
    return free


def flood_fill(free: np.ndarray, start: Tuple[int, int]) -> np.ndarray:
    """Cells 4-connected to ``start`` through the free mask.

    Args:
        free: boolean free-space raster (``(ny, nx)``).
        start: seed cell as ``(iy, ix)``.

    Returns:
        A boolean mask of the reachable component (all-``False`` when
        the seed cell itself is blocked).
    """
    ny, nx = free.shape
    flat = free.ravel()
    reach = np.zeros(ny * nx, dtype=bool)
    s = start[0] * nx + start[1]
    if not flat[s]:
        return reach.reshape(ny, nx)
    reach[s] = True
    frontier = np.array([s], dtype=np.intp)
    while frontier.size:
        steps = [
            frontier[frontier % nx != 0] - 1,
            frontier[frontier % nx != nx - 1] + 1,
            frontier[frontier >= nx] - nx,
            frontier[frontier < (ny - 1) * nx] + nx,
        ]
        cand = np.concatenate(steps)
        cand = cand[flat[cand] & ~reach[cand]]
        if not cand.size:
            break
        cand = np.unique(cand)
        reach[cand] = True
        frontier = cand
    return reach.reshape(ny, nx)


def reachable_free_mask(
    room: Room,
    start: Vec2,
    resolution: float,
    margin: float = VALIDATION_MARGIN_M,
) -> np.ndarray:
    """Free-space raster restricted to the component reachable from ``start``.

    The flood fill is seeded at the raster cell containing ``start``;
    when that cell is blocked (a start pose hugging a wall closer than
    ``margin``), the nearest free cell seeds instead, so a valid pose
    never reports an empty reachable set by quantization accident.

    Args:
        room: the world to rasterize.
        start: the pose reachability is measured from.
        resolution: approximate raster cell edge, metres.
        margin: required clearance, metres.

    Returns:
        A ``(ny, nx)`` boolean mask (same raster geometry as
        :func:`free_space_mask`); all-``False`` when the room has no
        free cell at all.
    """
    free = free_space_mask(room, resolution, margin)
    ny, nx = free.shape
    ex = room.width / nx
    ey = room.length / ny
    iy = min(ny - 1, max(0, int(start.y / ey)))
    ix = min(nx - 1, max(0, int(start.x / ex)))
    if not free[iy, ix]:
        cells = np.argwhere(free)
        if cells.size == 0:
            return free  # nothing is free: empty reachable set
        cx = (cells[:, 1] + 0.5) * ex
        cy = (cells[:, 0] + 0.5) * ey
        nearest = int(np.argmin((cx - start.x) ** 2 + (cy - start.y) ** 2))
        iy, ix = int(cells[nearest, 0]), int(cells[nearest, 1])
    return flood_fill(free, (iy, ix))


def reachable_cell_mask(
    room: Room,
    start: Vec2,
    cell_size: float,
    shape: Tuple[int, int],
    margin: float = VALIDATION_MARGIN_M,
    resolution: Optional[float] = None,
) -> np.ndarray:
    """Which cells of a coverage grid are reachable from ``start``.

    The room is rasterized well below ``cell_size`` (so thin walls and
    narrow passages are resolved), flood-filled from ``start``, and the
    reachable fine cells are projected up: a coverage cell counts as
    reachable when *any* reachable fine-cell centre falls inside it.
    Coverage cells wholly inside obstacles, inside sealed pockets, or
    past the room's walls (the ``ceil`` overshoot of a grid whose pitch
    does not divide the room) come back ``False``.

    The ``margin`` is deliberately conservative (it exceeds the drone's
    0.07 m collision radius): a cell whose only free space lies inside
    the margin band is excluded from the denominator, and a metric that
    also excludes such cells from its numerator stays ``<= 1`` -- but
    may then credit slightly less than a wall-hugging flight earned, so
    ``coverage >= coverage_raw`` is *not* an invariant, merely typical.

    Args:
        room: the world the coverage grid discretizes.
        start: the drone's start pose.
        cell_size: coverage-grid cell edge, metres.
        shape: coverage-grid shape ``(ny, nx)``; cell ``[iy, ix]``
            spans ``[ix * cell_size, (ix + 1) * cell_size) x [iy *
            cell_size, (iy + 1) * cell_size)``.
        margin: clearance the fine raster requires, metres.
        resolution: fine raster edge override; defaults to
            ``min(FINE_RESOLUTION_M, cell_size / 2)``.

    Returns:
        A ``(ny, nx)`` boolean mask over the coverage grid. When the
        room rasterizes to no free space at all (degenerate worlds),
        every cell is reported reachable so a downstream
        ``visited / reachable`` metric degrades to the raw fraction
        instead of dividing by zero. A room computes each mask once and
        hands out copies (a room reused across missions floods once).
    """
    key = (start.x, start.y, cell_size, tuple(shape), margin, resolution)
    masks = _cell_masks.setdefault(room, {})
    mask = masks.get(key)
    if mask is None:
        mask = masks[key] = _reachable_cell_mask(
            room, start, cell_size, shape, margin, resolution
        )
    return mask.copy()


def _reachable_cell_mask(
    room: Room,
    start: Vec2,
    cell_size: float,
    shape: Tuple[int, int],
    margin: float,
    resolution: Optional[float],
) -> np.ndarray:
    """:func:`reachable_cell_mask`, computed."""
    ny, nx = shape
    if resolution is None:
        resolution = min(FINE_RESOLUTION_M, cell_size / 2.0)
    reach_fine = reachable_free_mask(room, start, resolution, margin)
    if not reach_fine.any():
        return np.ones((ny, nx), dtype=bool)
    fny, fnx = reach_fine.shape
    ex = room.width / fnx
    ey = room.length / fny
    ys, xs = np.nonzero(reach_fine)
    gx = np.minimum(nx - 1, ((xs + 0.5) * ex / cell_size).astype(np.intp))
    gy = np.minimum(ny - 1, ((ys + 0.5) * ey / cell_size).astype(np.intp))
    mask = np.zeros((ny, nx), dtype=bool)
    mask[gy, gx] = True
    return mask
