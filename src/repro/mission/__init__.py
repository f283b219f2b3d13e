"""Mission runners: exploration-only and closed-loop search, one tick loop."""

from repro.mission.explorer import ExplorationMission, ExplorationResult
from repro.mission.detector_model import CalibratedDetectorModel, DetectorOperatingPoint
from repro.mission.closed_loop import (
    ClosedLoopMission,
    DetectionEvent,
    SearchResult,
)

__all__ = [
    "ExplorationMission",
    "ExplorationResult",
    "CalibratedDetectorModel",
    "DetectorOperatingPoint",
    "ClosedLoopMission",
    "DetectionEvent",
    "SearchResult",
]
