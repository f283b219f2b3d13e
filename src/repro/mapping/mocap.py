"""Motion-capture tracker substitute.

The paper tracks the drone with a mocap system at 50 Hz and computes all
coverage statistics offline from that trace. Here the tracker samples the
simulator's ground-truth state at the same rate and, like the paper,
computes coverage from the recorded trace: the flight only appends
samples, and the occupancy grid folds them in, all at once, on its first
query (:meth:`~repro.mapping.occupancy.OccupancyGrid.record_many`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.drone.dynamics import DroneState
from repro.geometry.vec import Vec2
from repro.mapping.coverage import CoverageSeries
from repro.mapping.occupancy import OccupancyGrid
from repro.world.room import Room

#: Tracking rate of the paper's motion-capture system, Hz.
MOCAP_RATE_HZ = 50.0


@dataclass(frozen=True)
class TrackedSample:
    """One mocap sample."""

    time: float
    position: Vec2
    heading: float


class MotionCaptureTracker:
    """Records the ground-truth trajectory; coverage follows from it.

    Args:
        room: room being tracked (defines the grid).
        rate_hz: sampling rate; samples arriving faster are ignored.
        cell_size: occupancy-grid cell size.
        start: the drone's start pose; forwarded to the grid so
            :meth:`coverage` can normalize by the cells reachable from
            it (``None`` keeps the raw all-cells normalization).
    """

    def __init__(
        self,
        room: Room,
        rate_hz: float = MOCAP_RATE_HZ,
        cell_size: Optional[float] = None,
        start: Optional[Vec2] = None,
    ):
        self.rate_hz = rate_hz
        kwargs = {} if cell_size is None else {"cell_size": cell_size}
        self._grid = OccupancyGrid(room, start=start, **kwargs)
        # Columnar storage: observe runs every control tick, and plain
        # float lists append ~5x cheaper than a TrackedSample + Vec2.
        self._times: List[float] = []
        self._xs: List[float] = []
        self._ys: List[float] = []
        self._headings: List[float] = []
        self._folded = 0  # samples the grid has accounted
        self._coverage: List[float] = []  # coverage after each folded sample
        self._period = 1.0 / rate_hz
        self._last_time: Optional[float] = None

    @property
    def samples(self) -> List[TrackedSample]:
        """The recorded trajectory (materialized on demand)."""
        return [
            TrackedSample(time=t, position=Vec2(x, y), heading=h)
            for t, x, y, h in zip(self._times, self._xs, self._ys, self._headings)
        ]

    def trajectory_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The trajectory as ``(times, xs, ys, headings)`` float arrays.

        The cheap bulk form of :attr:`samples`, for persistence and
        rendering pipelines.
        """
        return (
            np.array(self._times, dtype=np.float64),
            np.array(self._xs, dtype=np.float64),
            np.array(self._ys, dtype=np.float64),
            np.array(self._headings, dtype=np.float64),
        )

    def observe(self, state: DroneState) -> bool:
        """Offer the current ground-truth state to the tracker.

        Returns:
            True if a sample was recorded (i.e. at least one tracking
            period elapsed since the previous sample).
        """
        if self._last_time is not None and state.time - self._last_time < self._period - 1e-9:
            return False
        self._last_time = state.time
        position = state.position
        self._times.append(state.time)
        self._xs.append(position.x)
        self._ys.append(position.y)
        self._headings.append(state.heading)
        return True

    @property
    def grid(self) -> OccupancyGrid:
        """The occupancy grid, with every sample recorded so far folded in.

        Raises:
            WorldError: when a pending sample has a non-finite position.
        """
        self._fold()
        return self._grid

    def series(self) -> CoverageSeries:
        """Coverage over time: one point per sample, the coverage after it."""
        self._fold()
        return CoverageSeries.from_arrays(
            np.array(self._times, dtype=np.float64),
            np.array(self._coverage, dtype=np.float64),
        )

    def _fold(self) -> None:
        """Account the samples the grid has not seen, in one call.

        Each sample dwells one tracking period at its position; the
        first sample of the flight dwells for none.
        """
        done, n = self._folded, len(self._times)
        if done < n:
            dts = np.full(n - done, self._period)
            if done == 0:
                dts[0] = 0.0
            self._folded = n
            coverage = self._grid.record_many(self._xs[done:], self._ys[done:], dts)
            self._coverage.extend(coverage.tolist())

    def coverage(self) -> float:
        """Fraction of *reachable* free-space cells visited so far.

        Normalized by the cells reachable from the start pose the
        tracker was built with (all cells when no start was given); the
        historical all-cells fraction is :meth:`coverage_raw`.
        """
        return self.grid.coverage()

    def coverage_raw(self) -> float:
        """Fraction of all grid cells visited (historical normalization)."""
        return self.grid.coverage_raw()

    @property
    def reachable_cells(self) -> int:
        """Number of grid cells reachable from the start pose."""
        return self._grid.reachable_cells
