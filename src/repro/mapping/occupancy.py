"""Occupancy grid over the room, as used for Fig. 3 and Fig. 5.

The paper discretizes the 6.5 m x 5.5 m room into 0.5 m x 0.5 m cells
(143 cells), marks a cell *visited* when the drone's centre of mass falls
into it, and plots the occupancy *time* per cell as a heatmap capped at
18 s.

In the paper's empty mocap room every cell is flyable, so dividing the
visited count by ``nx * ny`` is the right normalization. On worlds with
obstacles (the synthetic presets and every generated maze/warehouse)
that denominator counts cells inside shelves, walls and sealed pockets
against the drone, so :meth:`OccupancyGrid.coverage` normalizes by the
cells *reachable from the start pose* instead -- computed once per grid
from the free-space raster + flood fill of
:mod:`repro.world.freespace` -- while :meth:`OccupancyGrid.coverage_raw`
keeps the historical visited-over-all-cells fraction.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorldError
from repro.geometry.vec import Vec2
from repro.world.freespace import reachable_cell_mask
from repro.world.room import Room

#: Cell edge length used throughout the paper, metres.
CELL_SIZE_M = 0.5


class OccupancyGrid:
    """Visit counts and occupancy time on a regular grid.

    Args:
        room: the room to discretize.
        cell_size: cell edge length in metres.
        start: the drone's start pose. When given, the cells reachable
            from it (through free space, with the standard validation
            margin) are computed once and :meth:`coverage` normalizes by
            their count. When ``None`` every cell counts as reachable
            and :meth:`coverage` equals :meth:`coverage_raw`.
    """

    def __init__(
        self,
        room: Room,
        cell_size: float = CELL_SIZE_M,
        start: Optional[Vec2] = None,
    ):
        if cell_size <= 0.0:
            raise WorldError("cell size must be positive")
        self.room = room
        self.cell_size = cell_size
        self.nx = int(math.ceil(room.width / cell_size))
        self.ny = int(math.ceil(room.length / cell_size))
        n = self.nx * self.ny
        # Dwell seconds per cell, plus one slot past the last cell that
        # holds the dwell recorded outside the room.
        self._time = np.zeros(n + 1, dtype=np.float64)
        self._visited = np.zeros(n, dtype=bool)
        self._visited_count = 0
        self._visited_reachable_count = 0
        self._out_of_room_count = 0
        self._reachable: Optional[np.ndarray] = None
        self.reachable_cells = n
        if start is not None:
            mask = reachable_cell_mask(
                room, start, cell_size, (self.ny, self.nx)
            )
            self._reachable = mask.ravel()
            self.reachable_cells = int(mask.sum())

    @classmethod
    def from_occupancy(
        cls,
        room: Room,
        occupancy_time: np.ndarray,
        visited: np.ndarray,
        cell_size: float = CELL_SIZE_M,
        start: Optional[Vec2] = None,
    ) -> "OccupancyGrid":
        """Rebuild a grid from persisted :attr:`occupancy_time`/:attr:`visited_mask`.

        The deserialization path of the execution layer: a cached or
        pooled exploration job ships its grid as two plain arrays, and
        this reconstructs an equivalent grid (rendering, coverage and
        visit counts all agree with the original).

        Args:
            room: the room the arrays were recorded in.
            occupancy_time: ``(ny, nx)`` seconds-per-cell array.
            visited: ``(ny, nx)`` boolean visited mask.
            cell_size: cell edge length the arrays were built with.
            start: optional start pose for reachable-cell bookkeeping
                (as in the constructor); ``None`` treats every cell as
                reachable.

        Raises:
            WorldError: when the array shapes do not match the grid the
                room/cell size imply.
        """
        grid = cls(room, cell_size, start=start)
        time_arr = np.asarray(occupancy_time, dtype=np.float64)
        visited_arr = np.asarray(visited, dtype=bool)
        expected = (grid.ny, grid.nx)
        if time_arr.shape != expected or visited_arr.shape != expected:
            raise WorldError(
                f"occupancy arrays {time_arr.shape}/{visited_arr.shape} do not "
                f"match the {expected} grid of a "
                f"{room.width:g} x {room.length:g} m room at {cell_size:g} m"
            )
        grid._time[:-1] = time_arr.ravel()
        grid._visited[:] = visited_arr.ravel()
        grid._visited_count = int(visited_arr.sum())
        reached = grid._visited
        if grid._reachable is not None:
            reached = reached & grid._reachable
        grid._visited_reachable_count = int(reached.sum())
        return grid

    @property
    def n_cells(self) -> int:
        """Total number of cells (143 for the paper room at 0.5 m)."""
        return self.nx * self.ny

    @property
    def reachable_mask(self) -> np.ndarray:
        """Boolean ``(ny, nx)`` array of reachable cells (copy).

        All-``True`` when the grid was built without a start pose.
        """
        if self._reachable is None:
            return np.ones((self.ny, self.nx), dtype=bool)
        return self._reachable.reshape(self.ny, self.nx).copy()

    def cell_of(self, p: Vec2) -> Tuple[int, int]:
        """Grid indices ``(ix, iy)`` of the cell containing ``p``.

        Positions on the walls are clamped into the nearest cell so the
        drone touching a wall still counts inside the room.

        Raises:
            WorldError: when ``p`` has a non-finite coordinate or lies
                outside the room entirely (negative, or past the far
                walls) -- silently clamping such poses into edge cells
                used to accrue coverage the drone never earned.
        """
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise WorldError(f"non-finite position ({p.x}, {p.y})")
        if not self._in_room(p):
            raise WorldError(
                f"position ({p.x:.3f}, {p.y:.3f}) outside the "
                f"{self.room.width:g} x {self.room.length:g} m room"
            )
        return self._clamped_cell(p)

    def _in_room(self, p: Vec2) -> bool:
        return 0.0 <= p.x <= self.room.width and 0.0 <= p.y <= self.room.length

    def _clamped_cell(self, p: Vec2) -> Tuple[int, int]:
        ix = min(self.nx - 1, max(0, int(p.x / self.cell_size)))
        iy = min(self.ny - 1, max(0, int(p.y / self.cell_size)))
        return ix, iy

    def record(self, p: Vec2, dt: float) -> None:
        """Account a dwell of ``dt`` seconds at position ``p``.

        The one-sample case of :meth:`record_many`: an out-of-room
        position (a tracker fed poses beyond the walls) touches no cell;
        its dwell accumulates separately in :attr:`out_of_room_time` /
        :attr:`out_of_room_count`.

        Raises:
            WorldError: on a non-finite position.
        """
        self.record_many([p.x], [p.y], [dt])

    def record_many(
        self, xs: Sequence[float], ys: Sequence[float], dts: Sequence[float]
    ) -> np.ndarray:
        """Account a trajectory, sample by sample; the coverage after each.

        Sample ``i`` is a dwell of ``dts[i]`` seconds at ``(xs[i],
        ys[i])``. Every number this leaves behind -- occupancy time,
        visited cells, out-of-room dwell and count -- and each returned
        :meth:`coverage` value equals, bit for bit, a loop that accounts
        one sample at a time (``tests/test_coverage_offline.py`` keeps it
        as the oracle): ``np.add.at`` adds each cell's dwells one at a
        time in sample order, and the coverage after a sample is a
        running count of first visits to reachable cells over
        :attr:`reachable_cells` (docs/determinism.md).

        Returns:
            The coverage after each sample, as a float array.

        Raises:
            WorldError: on a non-finite position, after accounting the
                samples before it.
        """
        x = np.asarray(xs, dtype=np.float64)
        y = np.asarray(ys, dtype=np.float64)
        dt = np.asarray(dts, dtype=np.float64)
        finite = np.isfinite(x) & np.isfinite(y)
        error = None
        if not finite.all():
            k = int(np.argmin(finite))
            error = WorldError(f"non-finite position ({float(x[k])}, {float(y[k])})")
            x, y, dt = x[:k], y[:k], dt[:k]
        n_cells = self.n_cells
        inside = np.flatnonzero(
            (x >= 0.0) & (x <= self.room.width) & (y >= 0.0) & (y <= self.room.length)
        )
        # Positions on the far walls clamp into the last cell; an
        # out-of-room sample goes to the slot past the last cell.
        ix = np.minimum((x[inside] / self.cell_size).astype(np.intp), self.nx - 1)
        iy = np.minimum((y[inside] / self.cell_size).astype(np.intp), self.ny - 1)
        idx = np.full(x.size, n_cells, dtype=np.intp)
        idx[inside] = iy * self.nx + ix
        np.add.at(self._time, idx, dt)
        self._out_of_room_count += x.size - inside.size
        cells, first = np.unique(idx[inside], return_index=True)
        fresh = ~self._visited[cells]
        cells = cells[fresh]
        self._visited[cells] = True
        self._visited_count += cells.size
        reached = inside[first[fresh]]
        if self._reachable is not None:
            reached = reached[self._reachable[cells]]
        gains = np.zeros(x.size, dtype=np.int64)
        gains[reached] = 1
        counts = np.cumsum(gains)
        counts += self._visited_reachable_count
        self._visited_reachable_count += reached.size
        if error is not None:
            raise error
        return counts / self.reachable_cells

    @property
    def out_of_room_time(self) -> float:
        """Dwell seconds recorded at positions outside the room."""
        return float(self._time[-1])

    @property
    def out_of_room_count(self) -> int:
        """Number of out-of-room positions offered to :meth:`record`."""
        return self._out_of_room_count

    @property
    def visited_mask(self) -> np.ndarray:
        """Boolean ``(ny, nx)`` array of visited cells (copy)."""
        return self._visited.reshape(self.ny, self.nx).copy()

    @property
    def occupancy_time(self) -> np.ndarray:
        """Seconds spent per cell, ``(ny, nx)`` (copy)."""
        return self._time[:-1].reshape(self.ny, self.nx).copy()

    def visited_count(self) -> int:
        """Number of visited cells (tracked incrementally, O(1))."""
        return self._visited_count

    def visited_reachable_count(self) -> int:
        """Number of visited *reachable* cells (tracked incrementally, O(1))."""
        return self._visited_reachable_count

    def coverage(self) -> float:
        """Fraction of reachable free-space cells visited, in ``[0, 1]``.

        Visited reachable cells over :attr:`reachable_cells`. On a grid
        whose cells are all reachable (the paper room, or any grid built
        without a start pose) this equals :meth:`coverage_raw` exactly.
        """
        return self.visited_reachable_count() / self.reachable_cells

    def coverage_raw(self) -> float:
        """Fraction of *all* grid cells visited, in ``[0, 1]``.

        The historical normalization (``visited / n_cells``), kept for
        continuity with pre-normalization results; it undercounts on any
        world whose grid has unreachable cells.
        """
        return self.visited_count() / self.n_cells

    def heatmap(self, cap_seconds: float = 18.0) -> np.ndarray:
        """Occupancy time clipped to ``cap_seconds`` (the paper's Fig. 3 cap)."""
        return np.clip(self.occupancy_time, 0.0, cap_seconds)

    def render_ascii(self, cap_seconds: float = 18.0) -> str:
        """ASCII rendition of the heatmap (black = never visited).

        Rows are printed north-up (largest y first), matching the usual
        plot orientation.
        """
        ramp = " .:-=+*#%@"
        capped = self.heatmap(cap_seconds)
        lines = []
        for iy in range(self.ny - 1, -1, -1):
            row = []
            for ix in range(self.nx):
                if not self._visited[iy * self.nx + ix]:
                    row.append(".")
                else:
                    level = capped[iy, ix] / cap_seconds
                    idx = min(len(ramp) - 1, 1 + int(level * (len(ramp) - 2)))
                    row.append(ramp[idx])
            lines.append("".join(row))
        return "\n".join(lines)
