"""Detection-rate aggregation for the closed-loop evaluation (Table III)."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.mission.loop import FlightResult


def aggregate_detection_rate(results: Sequence[FlightResult]) -> Tuple[float, float]:
    """Mean and standard deviation of the detection rate over runs.

    The paper reports the mean over 5 independent 3-minute runs.
    """
    if not results:
        raise ValueError("need at least one run")
    rates = np.array([r.detection_rate for r in results], dtype=np.float64)
    return float(rates.mean()), float(rates.std())
