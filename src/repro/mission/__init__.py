"""Mission runners: exploration-only and closed-loop search, one tick loop."""

from repro.mission.explorer import ExplorationMission
from repro.mission.detector_model import CalibratedDetectorModel, DetectorOperatingPoint
from repro.mission.closed_loop import ClosedLoopMission, DetectionEvent, FlightResult

__all__ = [
    "ExplorationMission",
    "CalibratedDetectorModel",
    "DetectorOperatingPoint",
    "ClosedLoopMission",
    "DetectionEvent",
    "FlightResult",
]
