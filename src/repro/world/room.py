"""Rectangular rooms with optional obstacles.

The room exposes a single flattened segment set (walls + obstacle
boundaries) that the :class:`~repro.geometry.raycast.RayCaster` consumes;
that one abstraction feeds the ToF sensors, the camera occlusion test and
the collision checker.

Free-space queries (:meth:`Room.is_free`, :meth:`Room.clearance`) run on
obstacle geometry flattened into numpy arrays at construction time: the
collision checker calls ``is_free`` up to three times per control tick,
and rebuilding obstacle boundary segments per call used to dominate dense
scenarios.

In a room with obstacles, ``is_free`` looks the point up in the
margin's clear-cell raster (:class:`_ClearCells`). A point in a clear
cell is free at once; anywhere else the raster hands over the few
obstacles and obstacle segments that can matter in that cell, stored
as Python floats on the cell's first query, and the exact test runs on
them alone with the reference arithmetic term for term, so no numpy
call is made on the way (docs/determinism.md has the argument).
``clearance`` buckets the room's segments into the same kind of
uniform grid the :class:`~repro.geometry.raycast.RayCaster` walks and
searches expanding cell rings around the point; the gathered subset
provably contains the nearest segment and the per-segment arithmetic is
the identical elementwise numpy expression, which keeps it O(cell) on
generated 1000+-segment worlds (:mod:`repro.sim.generators`).
``accel="none"`` keeps the full-array reference path of both queries
that the equivalence tests pin against; every mode answers bit for bit
alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import WorldError
from repro.geometry.raycast import RayCaster
from repro.geometry.segments import Segment
from repro.geometry.shapes import AABB, Circle
from repro.geometry.vec import Vec2

ObstacleShape = Union[AABB, Circle]

#: Segment count at which ``accel="auto"`` buckets ``clearance`` queries
#: into the uniform grid. Below it the single full-array numpy pass is
#: cheaper than gathering candidate indices.
POINT_GRID_THRESHOLD = 64

#: Cells of a :class:`_ClearCells` raster along the room's longer wall.
CLEAR_CELLS = 256

#: The :meth:`Room.is_free` query at one margin that builds that
#: margin's :class:`_ClearCells` raster; the queries before it run the
#: exact scan. A build costs 0.23-0.29 ms and saves 8-17 us a query on
#: the preset and generated worlds, so it pays after 17-30 queries; the
#: rooms that validate a scenario (1-8 queries each) never build one.
#: :meth:`Room.is_free_many`, a fleet block's collision check on every
#: tick of its flight, builds it on its first call.
RASTER_BUILD_QUERY = 32

#: Growth, in metres, added to the margin around every box a clear cell
#: must avoid: it absorbs the rounding of the exact test's distances.
CLEAR_SLACK_M = 1e-9

#: Relative half-width of the band around ``margin**2`` in which the
#: scalar segment test of :meth:`Room.is_free` cannot tell ``u*u + v*v``
#: from the reference's ``np.hypot(u, v) < margin`` and asks the numpy
#: lane instead. The float sum and ``np.hypot`` each err by well under
#: ``1e-15`` relative.
EXACT_BAND = 1e-12


def _shape_bbox(shape: ObstacleShape) -> Tuple[float, float, float, float]:
    """Conservative ``(xmin, ymin, xmax, ymax)`` of an obstacle shape."""
    if isinstance(shape, AABB):
        return (shape.xmin, shape.ymin, shape.xmax, shape.ymax)
    return (
        shape.center.x - shape.radius,
        shape.center.y - shape.radius,
        shape.center.x + shape.radius,
        shape.center.y + shape.radius,
    )


class _BBoxBuckets:
    """Items bucketed by bounding box into a uniform cell grid.

    Serves the nearest-distance search of :meth:`Room.clearance`:
    gathering every item whose bbox can intersect an axis-aligned query
    box, for boxes growing around a point. Candidate sets are
    conservative supersets (duplicates possible when a bbox spans
    several cells), which is harmless for the ``min`` reduction they
    feed.
    """

    __slots__ = ("x0", "y0", "cw", "ch", "ncx", "ncy", "cells", "cell_min")

    def __init__(
        self,
        bxmin: np.ndarray,
        bymin: np.ndarray,
        bxmax: np.ndarray,
        bymax: np.ndarray,
    ):
        n = bxmin.size
        pad = 1e-9
        self.x0 = float(bxmin.min()) - pad
        self.y0 = float(bymin.min()) - pad
        xmax = float(bxmax.max()) + pad
        ymax = float(bymax.max()) + pad
        # ~sqrt(n) cells per axis keeps a handful of items per bucket
        # (same sizing rule as the raycast grid).
        cells = int(min(128, max(4, math.ceil(math.sqrt(n)))))
        self.ncx = cells
        self.ncy = cells
        self.cw = max(xmax - self.x0, 1e-9) / cells
        self.ch = max(ymax - self.y0, 1e-9) / cells
        self.cell_min = min(self.cw, self.ch)
        buckets: List[List[int]] = [[] for _ in range(cells * cells)]
        for i in range(n):
            ix0 = self._ix(float(bxmin[i]))
            ix1 = self._ix(float(bxmax[i]))
            iy0 = self._iy(float(bymin[i]))
            iy1 = self._iy(float(bymax[i]))
            for iy in range(iy0, iy1 + 1):
                row = iy * cells
                for ix in range(ix0, ix1 + 1):
                    buckets[row + ix].append(i)
        self.cells = [np.array(b, dtype=np.intp) for b in buckets]

    def _ix(self, x: float) -> int:
        ix = int((x - self.x0) / self.cw)
        return 0 if ix < 0 else (self.ncx - 1 if ix >= self.ncx else ix)

    def _iy(self, y: float) -> int:
        iy = int((y - self.y0) / self.ch)
        return 0 if iy < 0 else (self.ncy - 1 if iy >= self.ncy else iy)

    def box_candidates(self, xmin: float, ymin: float, xmax: float, ymax: float):
        """Indices of every item whose bbox may intersect the query box."""
        return self.gather_range(
            self._ix(xmin), self._ix(xmax), self._iy(ymin), self._iy(ymax)
        )

    def gather_range(self, ix0: int, ix1: int, iy0: int, iy1: int):
        """Concatenated buckets of the (clamped) cell index range."""
        parts = []
        for iy in range(iy0, iy1 + 1):
            row = iy * self.ncx
            for ix in range(ix0, ix1 + 1):
                cell = self.cells[row + ix]
                if cell.size:
                    parts.append(cell)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def full_cover(self, ix0: int, ix1: int, iy0: int, iy1: int) -> bool:
        """True if the cell range spans the entire grid."""
        return ix0 == 0 and iy0 == 0 and ix1 == self.ncx - 1 and iy1 == self.ncy - 1


@dataclass(frozen=True)
class Obstacle:
    """A static obstacle inside the room."""

    shape: ObstacleShape
    name: str = ""

    def segments(self) -> List[Segment]:
        """Boundary segments of the obstacle."""
        return self.shape.boundary_segments()

    def contains(self, p: Vec2) -> bool:
        """True if ``p`` is inside the obstacle."""
        return self.shape.contains(p)


class _SegmentDistanceField:
    """Point-to-segment distances over a fixed segment set, vectorized.

    Evaluates the same arithmetic as
    :meth:`~repro.geometry.segments.Segment.distance_to_point` for every
    segment in one numpy pass, with preallocated scratch buffers. One
    caveat: the final ``np.hypot`` can differ from ``math.hypot`` by
    1 ulp (CPython ships its own corrected algorithm), so a distance
    sitting within ~1e-16 relative of a ``margin`` threshold could
    compare differently than the scalar loop -- everything upstream of
    the hypot is term-for-term identical, and the mission-level
    equivalence suite pins the observable behaviour.

    With a grid (``grid=True`` and enough segments) the field buckets
    segment bounding boxes into a :class:`_BBoxBuckets` grid and answers
    :meth:`min_distance` from conservative candidate subsets. The subset
    arithmetic is the same elementwise expression evaluated on gathered
    arrays -- numpy elementwise ops are deterministic per lane, so every
    gathered distance equals the corresponding full-array lane exactly,
    and segments the gather skips provably cannot change the ``min(d)``
    reduction. Answers are therefore bit-identical to the brute path.
    """

    def __init__(
        self, segments: Sequence[Segment], grid: bool = False, force_grid: bool = False
    ):
        self._n = len(segments)
        self._grid: Optional[_BBoxBuckets] = None
        if self._n == 0:
            return
        self._ax = np.array([s.a.x for s in segments], dtype=np.float64)
        self._ay = np.array([s.a.y for s in segments], dtype=np.float64)
        self._dx = np.array([s.b.x - s.a.x for s in segments], dtype=np.float64)
        self._dy = np.array([s.b.y - s.a.y for s in segments], dtype=np.float64)
        self._len_sq = self._dx * self._dx + self._dy * self._dy
        self._t = np.empty(self._n, dtype=np.float64)
        self._u = np.empty(self._n, dtype=np.float64)
        self._wx = np.empty(self._n, dtype=np.float64)
        self._wy = np.empty(self._n, dtype=np.float64)
        if (grid and self._n >= POINT_GRID_THRESHOLD) or force_grid:
            self._grid = _BBoxBuckets(*self.bboxes())

    def bboxes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(xmin, ymin, xmax, ymax)`` of every segment, as four arrays."""
        bx = self._ax + self._dx
        by = self._ay + self._dy
        return (
            np.minimum(self._ax, bx),
            np.minimum(self._ay, by),
            np.maximum(self._ax, bx),
            np.maximum(self._ay, by),
        )

    def terms(self, idx: np.ndarray) -> List[Tuple[float, ...]]:
        """``(ax, ay, dx, dy, len_sq, i)`` of the segments in ``idx`` whose
        ``len_sq`` is not zero, as Python floats: the operands of
        :meth:`_distances` for lane ``i``. A zero-length segment's lane is
        NaN and never passes within a radius, so it is left out."""
        idx = idx[self._len_sq[idx] != 0.0]
        return list(
            zip(
                self._ax[idx].tolist(),
                self._ay[idx].tolist(),
                self._dx[idx].tolist(),
                self._dy[idx].tolist(),
                self._len_sq[idx].tolist(),
                idx.tolist(),
            )
        )

    def min_distance(self, p: Vec2) -> float:
        """Distance from ``p`` to the closest segment of the set."""
        if self._n == 0:
            return float("inf")
        if self._grid is not None:
            return self._min_distance_grid(p)
        return float(np.min(self._distances(p)))

    def any_within(self, p: Vec2, radius: float) -> bool:
        """True if any segment passes within ``radius`` of ``p``."""
        if self._n == 0:
            return False
        return bool(np.any(self._distances(p) < radius))

    def _min_distance_grid(self, p: Vec2) -> float:
        """Doubling-box nearest search over the bucketed cells.

        The cell cover of the query box ``[p - r, p + r]`` contains
        every segment within Euclidean distance ``r`` of ``p``, so a
        candidate minimum ``d <= r`` is the exact global minimum. When
        the nearest gathered segment is farther than ``r``, one final
        gather at radius ``d`` is exact (every segment closer than ``d``
        lies inside that cover). Empty covers double ``r`` until they
        catch geometry or span the whole grid.
        """
        grid = self._grid
        r = grid.cell_min
        while True:
            ix0, ix1 = grid._ix(p.x - r), grid._ix(p.x + r)
            iy0, iy1 = grid._iy(p.y - r), grid._iy(p.y + r)
            idx = grid.gather_range(ix0, ix1, iy0, iy1)
            full = grid.full_cover(ix0, ix1, iy0, iy1)
            if idx is None:
                if full:
                    return math.inf
                r *= 2.0
                continue
            d = float(np.min(self._distances_at(p, idx)))
            if d <= r or full:
                return d
            idx = self._grid.box_candidates(p.x - d, p.y - d, p.x + d, p.y + d)
            return float(np.min(self._distances_at(p, idx)))

    def _distances_at(self, p: Vec2, idx: np.ndarray) -> np.ndarray:
        """:meth:`_distances` restricted to the segments in ``idx``.

        Same elementwise expressions on gathered operands, so each entry
        is bit-identical to the matching full-array lane.
        """
        ax = self._ax[idx]
        ay = self._ay[idx]
        dx = self._dx[idx]
        dy = self._dy[idx]
        t = (p.x - ax) * dx
        t += (p.y - ay) * dy
        t /= self._len_sq[idx]
        np.clip(t, 0.0, 1.0, out=t)
        u = t * dx
        u += ax
        u -= p.x
        t *= dy
        t += ay
        t -= p.y
        return np.hypot(u, t, out=u)

    def _distances(self, p: Vec2) -> np.ndarray:
        # t = clamp((p - a) . d / |d|^2, 0, 1); dist = |a + t*d - p|
        wx = np.subtract(p.x, self._ax, out=self._wx)
        wy = np.subtract(p.y, self._ay, out=self._wy)
        t = np.multiply(wx, self._dx, out=self._t)
        u = np.multiply(wy, self._dy, out=self._u)
        t += u
        t /= self._len_sq
        np.clip(t, 0.0, 1.0, out=t)
        # closest point (a + t*d) minus p, matching Segment.point_at +
        # distance_to term-for-term (see the class docstring for the
        # one hypot ulp caveat).
        np.multiply(t, self._dx, out=self._u)
        self._u += self._ax
        self._u -= p.x
        np.multiply(t, self._dy, out=self._t)
        self._t += self._ay
        self._t -= p.y
        return np.hypot(self._u, self._t, out=self._u)


class _ClearCells:
    """Where :meth:`Room.is_free` holds at one margin, and what to test elsewhere.

    Square cells, :data:`CLEAR_CELLS` along the longer wall, cover the
    room; ``(x, y)`` falls in cell ``(floor(y * inv), floor(x * inv))``.
    A cell is clear when its column and row lie strictly between the
    cells of the walls' margin thresholds and no obstacle or
    obstacle-segment bounding box, grown by ``margin + CLEAR_SLACK_M``,
    touches it. Edges and thresholds go through the query points' float
    expression, which is monotone, so a point in a clear cell passes the
    walls' test and lies farther than ``margin`` from every obstacle
    boundary (docs/determinism.md has the argument).

    Every other cell gets its exact test's candidates on its first
    query (:meth:`candidates`): the obstacles whose bounding box, grown
    by ``CLEAR_SLACK_M``, touches the cell, and (for a positive margin)
    the obstacle segments whose box grown by ``margin + CLEAR_SLACK_M``
    touches it. By the same argument no other obstacle contains a point
    of the cell and no other segment passes within ``margin`` of one.
    """

    __slots__ = (
        "inv", "nx", "ny", "flat", "bits", "walls", "lo", "hi",
        "_shapes", "_field", "_obstacle_cells", "_segment_cells", "_found",
    )

    def __init__(
        self,
        bounds: AABB,
        shapes: Sequence[ObstacleShape],
        field: _SegmentDistanceField,
        margin: float,
    ):
        inv = CLEAR_CELLS / max(bounds.xmax, bounds.ymax)
        nx = int(bounds.xmax * inv) + 1
        ny = int(bounds.ymax * inv) + 1

        def index(v: np.ndarray, n: int) -> np.ndarray:
            return np.clip(np.floor(v * inv), 0, n - 1).astype(np.intp)

        def cell_ranges(boxes: Sequence[np.ndarray], grow: float) -> Tuple[np.ndarray, ...]:
            """Column and row range ``(x0, x1, y0, y1)`` each grown box covers."""
            xmin, ymin, xmax, ymax = boxes
            return (
                index(xmin - grow, nx), index(xmax + grow, nx),
                index(ymin - grow, ny), index(ymax + grow, ny),
            )

        # One 2-D difference array, +1/-1 at the corners of every grown
        # box's cell range (clipping only ever covers more cells); two
        # running sums count the boxes touching each cell. Each row of
        # the array sums to zero, so the running sum of the flat array
        # is the running sum along every row.
        grow = margin + CLEAR_SLACK_M
        shape_boxes = np.array([_shape_bbox(shape) for shape in shapes]).T
        segment_ranges = cell_ranges(field.bboxes(), grow)
        x0, x1, y0, y1 = (
            np.concatenate(pair)
            for pair in zip(cell_ranges(shape_boxes, grow), segment_ranges)
        )
        w = nx + 1
        x1 = x1 + 1
        y0 = y0 * w
        y1 = (y1 + 1) * w
        corners = np.concatenate((y0 + x0, y0 + x1, y1 + x0, y1 + x1))
        signs = np.repeat((1.0, -1.0, -1.0, 1.0), x0.size)
        count = np.bincount(corners, signs, (ny + 1) * w).astype(np.int32)
        count = count.cumsum(dtype=np.int32).reshape(ny + 1, w)
        touched = count.cumsum(axis=0, dtype=np.int32)[:ny, :nx] > 0

        def inside(n: int, lo: float, hi: float) -> np.ndarray:
            # ``lo`` and ``hi`` are the very sums the walls' test compares.
            cells = np.arange(n)
            return (cells > np.floor(lo * inv)) & (cells < np.floor(hi * inv))

        walls = (
            bounds.xmin + margin, bounds.xmax - margin,
            bounds.ymin + margin, bounds.ymax - margin,
        )
        inside_x = inside(nx, walls[0], walls[1])
        inside_y = inside(ny, walls[2], walls[3])
        self.flat = (~touched & inside_y[:, None] & inside_x).ravel()
        self.bits = self.flat.tobytes()
        self.inv, self.nx, self.ny = inv, nx, ny
        #: The walls' test thresholds, as ``AABB.contains`` sums them.
        self.walls = walls
        # Outside [lo, hi] the sum u*u + v*v decides ``hypot(u, v) <
        # margin``; a margin whose square leaves the normal range puts
        # every sum in the band (docs/determinism.md).
        m2 = margin * margin
        if 1e-100 <= margin <= 1e100:
            self.lo, self.hi = m2 * (1.0 - EXACT_BAND), m2 * (1.0 + EXACT_BAND)
        else:
            self.lo, self.hi = -1.0, math.inf
        self._shapes = shapes
        self._field = field
        self._obstacle_cells = cell_ranges(shape_boxes, CLEAR_SLACK_M)
        self._segment_cells = segment_ranges if margin > 0.0 else None
        self._found: Dict[int, tuple] = {}

    def cell(self, x: float, y: float) -> int:
        """Flat index of the cell ``(x, y)`` falls in; -1 off the raster.

        A point that passes the walls' test at a margin ``>= 0`` lies in
        ``[0, xmax] x [0, ymax]``, hence on the raster.
        """
        fx, fy, nx = x * self.inv, y * self.inv, self.nx
        if 0.0 <= fx < nx and 0.0 <= fy < self.ny:
            return int(fy) * nx + int(fx)
        return -1

    def hits(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Whether each point falls in a clear cell, as a bool array."""
        fx, fy = xs * self.inv, ys * self.inv
        out: np.ndarray = (fx >= 0.0) & (fx < self.nx) & (fy >= 0.0) & (fy < self.ny)
        idx = np.flatnonzero(out)
        out[idx] = self.flat[fy[idx].astype(np.intp) * self.nx + fx[idx].astype(np.intp)]
        return out

    def candidates(self, cell: int) -> tuple:
        """``(boxes, circles, segments)`` to test in a cell that is not clear.

        ``boxes`` holds ``(xmin, ymin, xmax, ymax)`` of each candidate
        box obstacle, ``circles`` ``(cx, cy, r)`` of each circular one,
        and ``segments`` the :meth:`_SegmentDistanceField.terms` of each
        candidate obstacle segment; built on the cell's first query.
        """
        found = self._found.get(cell)
        if found is None:
            row, col = divmod(cell, self.nx)

            def touching(ranges: Tuple[np.ndarray, ...]) -> np.ndarray:
                x0, x1, y0, y1 = ranges
                return np.flatnonzero((x0 <= col) & (col <= x1) & (y0 <= row) & (row <= y1))

            boxes, circles = [], []
            for i in touching(self._obstacle_cells).tolist():
                shape = self._shapes[i]
                if isinstance(shape, AABB):
                    boxes.append((shape.xmin, shape.ymin, shape.xmax, shape.ymax))
                else:
                    circles.append((shape.center.x, shape.center.y, shape.radius))
            segments = []
            if self._segment_cells is not None:
                segments = self._field.terms(touching(self._segment_cells))
            found = self._found[cell] = (tuple(boxes), tuple(circles), tuple(segments))
        return found


class Room:
    """A rectangular room with walls and optional interior obstacles."""

    def __init__(
        self,
        width: float,
        length: float,
        obstacles: Optional[Sequence[Obstacle]] = None,
        accel: str = "auto",
    ):
        """Create a room spanning ``[0, width] x [0, length]`` metres.

        Args:
            width: extent along x, in metres.
            length: extent along y, in metres.
            obstacles: interior obstacles; must lie fully inside the walls.
            accel: acceleration mode (``"auto"``, ``"grid"`` or
                ``"none"``), forwarded to :class:`RayCaster` and applied
                to the point queries: ``"auto"`` buckets ``clearance``
                queries above :data:`POINT_GRID_THRESHOLD` segments
                (``"grid"`` always) and, in a room with obstacles,
                answers ``is_free`` from the clear-cell rasters;
                ``"none"`` keeps the full-array reference path of both.
                Every mode gives bit-identical answers.
        """
        if width <= 0.0 or length <= 0.0:
            raise WorldError(f"non-positive room dimensions {width} x {length}")
        self._bounds = AABB(0.0, 0.0, width, length)
        self._obstacles: List[Obstacle] = list(obstacles or [])
        for obs in self._obstacles:
            self._check_inside(obs)
        self._raycaster = RayCaster(self.all_segments(), accel=accel)
        self._build_query_arrays(accel)
        # Clear-cell rasters by margin; the walls' test alone is cheap.
        self._clear_cells: Optional[Dict[float, _ClearCells]] = (
            {} if self._obstacles and accel != "none" else None
        )
        self._scanned: Dict[float, int] = {}  # queries per margin without a raster

    def _build_query_arrays(self, accel: str) -> None:
        """Flatten obstacle geometry for the vectorized free-space tests."""
        obstacle_segments: List[Segment] = []
        for obs in self._obstacles:
            obstacle_segments.extend(obs.segments())
        self._obstacle_field = _SegmentDistanceField(obstacle_segments)
        self._all_field = _SegmentDistanceField(
            self._bounds.boundary_segments() + obstacle_segments,
            grid=accel != "none",
            force_grid=accel == "grid",
        )

    @property
    def bounds(self) -> AABB:
        """The wall rectangle."""
        return self._bounds

    @property
    def width(self) -> float:
        return self._bounds.width

    @property
    def length(self) -> float:
        return self._bounds.height

    @property
    def obstacles(self) -> List[Obstacle]:
        """Interior obstacles (copy)."""
        return list(self._obstacles)

    @property
    def raycaster(self) -> RayCaster:
        """Ray caster over walls + obstacle boundaries."""
        return self._raycaster

    def all_segments(self) -> List[Segment]:
        """Walls plus every obstacle boundary."""
        segs = self._bounds.boundary_segments()
        for obs in self._obstacles:
            segs.extend(obs.segments())
        return segs

    def center(self) -> Vec2:
        """Geometric centre of the room."""
        return self._bounds.center

    def is_free(self, p: Vec2, margin: float = 0.0) -> bool:
        """True if ``p`` is inside the walls and outside every obstacle.

        Args:
            p: the point to test.
            margin: clearance required from walls and obstacle boundaries.
        """
        cells = self._raster(margin)
        if cells is None:
            return self._is_free_scan(p, margin)
        x = p.x
        y = p.y
        cell = cells.cell(x, y)
        if cell >= 0 and cells.bits[cell] == 1:
            return True
        xlo, xhi, ylo, yhi = cells.walls
        if not (xlo <= x <= xhi and ylo <= y <= yhi):
            return False
        boxes, circles, segments = cells.candidates(cell)
        for xmin, ymin, xmax, ymax in boxes:
            if xmin <= x <= xmax and ymin <= y <= ymax:
                return False
        for cx, cy, r in circles:
            if math.hypot(cx - x, cy - y) <= r:
                return False
        lo, hi = cells.lo, cells.hi
        for ax, ay, dx, dy, len_sq, i in segments:
            # _SegmentDistanceField._distances for lane i, term for term.
            t = ((x - ax) * dx + (y - ay) * dy) / len_sq
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            u = t * dx + ax - x
            v = t * dy + ay - y
            d2 = u * u + v * v
            if d2 > hi:
                continue
            if d2 < lo or self._obstacle_field._distances(p)[i] < margin:
                return False
        return True

    def _is_free_scan(self, p: Vec2, margin: float) -> bool:
        """:meth:`is_free` over every obstacle and obstacle segment: the
        reference, and the test of a room or margin without a raster."""
        if not self._bounds.contains(p, margin=margin):
            return False
        for obs in self._obstacles:
            if obs.contains(p):
                return False
        return not (margin > 0.0 and self._obstacle_field.any_within(p, margin))

    def is_free_many(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        margin: float = 0.0,
    ) -> np.ndarray:
        """Vectorized :meth:`is_free` over ``N`` points, as a bool array.

        Entry ``i`` equals ``is_free(Vec2(xs[i], ys[i]), margin)``
        exactly. Obstacle-free rooms (the paper room, the empty arena)
        reduce to four vectorized wall comparisons with the same
        ``xmin + margin`` thresholds the scalar test evaluates. Rooms
        with obstacles look every point up in the clear-cell raster in
        one vectorized pass and run the scalar query only on the points
        outside a clear cell (on every point under ``accel="none"``).
        """
        x_arr = np.asarray(xs, dtype=np.float64)
        y_arr = np.asarray(ys, dtype=np.float64)
        if not self._obstacles:
            b = self._bounds
            lo_x = b.xmin + margin
            hi_x = b.xmax - margin
            lo_y = b.ymin + margin
            hi_y = b.ymax - margin
            out: np.ndarray = (x_arr >= lo_x) & (x_arr <= hi_x)
            out &= y_arr >= lo_y
            out &= y_arr <= hi_y
            return out
        cells = self._raster(margin, at_once=True)
        out = np.zeros(x_arr.shape, bool) if cells is None else cells.hits(x_arr, y_arr)
        rest = np.flatnonzero(~out)
        is_free = self.is_free
        for i, x, y in zip(rest.tolist(), x_arr[rest].tolist(), y_arr[rest].tolist()):
            out[i] = is_free(Vec2(x, y), margin)
        return out

    def _raster(self, margin: float, at_once: bool = False) -> Optional[_ClearCells]:
        """The clear-cell raster at ``margin``, built on the margin's
        :data:`RASTER_BUILD_QUERY`-th query (or this one, ``at_once``);
        ``None`` before it or without one (a negative margin shrinks the
        obstacles)."""
        rasters = self._clear_cells
        if rasters is None or not margin >= 0.0:
            return None
        cells = rasters.get(margin)
        if cells is None:
            scanned = self._scanned.get(margin, 0) + 1
            if scanned < RASTER_BUILD_QUERY and not at_once:
                self._scanned[margin] = scanned
                return None
            shapes = [o.shape for o in self._obstacles]
            cells = rasters[margin] = _ClearCells(
                self._bounds, shapes, self._obstacle_field, margin
            )
        return cells

    def clearance(self, p: Vec2) -> float:
        """Distance from ``p`` to the nearest wall or obstacle boundary.

        Points outside the walls or inside an obstacle report clearance 0.
        """
        if not self.is_free(p):
            return 0.0
        return self._all_field.min_distance(p)

    def _check_inside(self, obs: Obstacle) -> None:
        for seg in obs.segments():
            for endpoint in (seg.a, seg.b):
                if not self._bounds.contains(endpoint):
                    raise WorldError(
                        f"obstacle {obs.name or obs.shape} extends outside the walls"
                    )
