"""Closed-loop search mission: exploration + object detection (Sec. IV-C).

The exploration policy runs on the (simulated) STM32 at the control rate
while the detector consumes camera frames at its own onboard throughput,
mirroring the paper's host-accelerator split where the two tasks do not
interact: the flight is the shared tick loop
(:func:`repro.mission.loop.fly`) with the camera on. The mission reports
the *detection rate*: the fraction of the placed target objects detected
at least once during the flight.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.drone.crazyflie import CrazyflieConfig
from repro.errors import MissionError
from repro.geometry.vec import Vec2
from repro.mission.detector_model import DetectionChannel, DetectorOperatingPoint
from repro.mission.loop import DetectionEvent, FlightResult, fly
from repro.obs import MissionTrace
from repro.policies.base import ExplorationPolicy
from repro.seeding import SeedLike
from repro.world.objects import SceneObject
from repro.world.room import Room

__all__ = ["ClosedLoopMission", "DetectionEvent", "FlightResult"]


class ClosedLoopMission:
    """Runs exploration and detection concurrently for one flight.

    Args:
        room: the environment.
        objects: target objects placed in the room.
        policy: exploration policy.
        channel: detection channel (calibrated model or rendered CNN).
        operating_point: deployed SSD variant; its ``fps`` paces the
            camera frames.
        flight_time_s: run duration (180 s in the paper).
        start: drone start position.
        drone_config: platform configuration.
        record: when True, capture a per-tick flight trace; after
            :meth:`run` it is available as :attr:`last_trace`. The
            simulated flight is bit-identical with and without
            recording (the trace is observation, not intervention).
    """

    def __init__(
        self,
        room: Room,
        objects: Sequence[SceneObject],
        policy: ExplorationPolicy,
        channel: DetectionChannel,
        operating_point: DetectorOperatingPoint,
        flight_time_s: float = 180.0,
        start: Optional[Vec2] = None,
        drone_config: Optional[CrazyflieConfig] = None,
        record: bool = False,
    ):
        if not objects:
            raise MissionError("a search mission needs at least one object")
        if flight_time_s <= 0.0:
            raise MissionError("flight time must be positive")
        names = [o.name for o in objects]
        if len(set(names)) != len(names):
            raise MissionError("object names must be unique")
        self.room = room
        self.objects = list(objects)
        self.policy = policy
        self.channel = channel
        self.operating_point = operating_point
        self.flight_time_s = flight_time_s
        self.start = start
        self.drone_config = drone_config
        self.record = record
        self.last_trace: Optional[MissionTrace] = None

    def run(self, seed: SeedLike = None) -> FlightResult:
        """Execute one flight; fully reproducible given ``seed``.

        Args:
            seed: ``None``, an integer, or a
                :class:`~numpy.random.SeedSequence` (how the campaign
                engine hands each mission its own independent stream).
                The sensor, policy and detector RNGs are spawned as
                independent child streams, so results are bit-identical
                whether the mission runs serially or in a worker process.
        """
        result, self.last_trace = fly(
            self.room,
            self.policy,
            self.flight_time_s,
            seed,
            start=self.start,
            drone_config=self.drone_config,
            objects=self.objects,
            channel=self.channel,
            fps=self.operating_point.fps,
            record=self.record,
        )
        return result
