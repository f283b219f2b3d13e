"""Coverage-over-time series, as plotted in the paper's Fig. 6."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np


class CoverageSeries:
    """A (time, coverage) trace of one flight."""

    def __init__(self):
        self._times: List[float] = []
        self._coverage: List[float] = []

    def append(self, time: float, coverage: float) -> None:
        """Record the coverage fraction at ``time`` seconds.

        Raises:
            ValueError: on a non-finite time or coverage value (a single
                NaN would silently poison :meth:`mean_and_variance` and
                every resampled aggregate), or on a time running
                backwards.
        """
        if not math.isfinite(time):
            raise ValueError(f"time must be finite, got {time}")
        if not math.isfinite(coverage):
            raise ValueError(f"coverage must be finite, got {coverage}")
        if self._times and time < self._times[-1]:
            raise ValueError("time must be non-decreasing")
        self._times.append(time)
        self._coverage.append(coverage)

    @classmethod
    def from_arrays(cls, times: np.ndarray, coverage: np.ndarray) -> "CoverageSeries":
        """Build a series from whole sample arrays in one shot.

        Both tick loops build their series here from the whole trace
        after the flight; the result equals appending the samples one by
        one (same finiteness and monotonicity validation, vectorized).

        Raises:
            ValueError: on shape mismatch, non-finite samples, or a
                time axis running backwards.
        """
        t = np.asarray(times, dtype=np.float64)
        c = np.asarray(coverage, dtype=np.float64)
        if t.ndim != 1 or t.shape != c.shape:
            raise ValueError(
                f"times and coverage must be equal-length 1-D arrays, "
                f"got {t.shape} and {c.shape}"
            )
        if t.size:
            if not np.isfinite(t).all():
                raise ValueError("time must be finite")
            if not np.isfinite(c).all():
                raise ValueError("coverage must be finite")
            if t.size > 1 and bool((np.diff(t) < 0.0).any()):
                raise ValueError("time must be non-decreasing")
        series = cls()
        series._times = t.tolist()
        series._coverage = c.tolist()
        return series

    @property
    def times(self) -> np.ndarray:
        return np.array(self._times, dtype=np.float64)

    @property
    def coverage(self) -> np.ndarray:
        return np.array(self._coverage, dtype=np.float64)

    def at(self, time: float) -> float:
        """Coverage at ``time`` (step interpolation; 0 before the first sample)."""
        if not self._times:
            return 0.0
        idx = int(np.searchsorted(self._times, time, side="right")) - 1
        if idx < 0:
            return 0.0
        return self._coverage[idx]

    def final(self) -> float:
        """Coverage at the end of the flight."""
        return self._coverage[-1] if self._coverage else 0.0

    def at_many(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`at`: one ``searchsorted`` for all of ``times``."""
        times = np.asarray(times, dtype=np.float64)
        if not self._times:
            return np.zeros(times.shape, dtype=np.float64)
        own_times = np.asarray(self._times, dtype=np.float64)
        own_cov = np.asarray(self._coverage, dtype=np.float64)
        idx = np.searchsorted(own_times, times, side="right") - 1
        return np.where(idx >= 0, own_cov[np.maximum(idx, 0)], 0.0)

    @staticmethod
    def mean_and_variance(
        series: Sequence["CoverageSeries"], grid_times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mean and variance of several runs resampled on ``grid_times``.

        This is how Fig. 6 aggregates the five pseudo-random runs. Each
        series is resampled with one binary-search pass
        (:meth:`at_many`) instead of a per-grid-point Python loop.
        """
        if not series:
            raise ValueError("need at least one series")
        grid = np.asarray(grid_times, dtype=np.float64)
        values = np.empty((len(series), grid.size), dtype=np.float64)
        for i, s in enumerate(series):
            values[i] = s.at_many(grid)
        return values.mean(axis=0), values.var(axis=0)
