"""Exploration-only mission runner (paper Sec. IV-B).

Runs one policy in one room for a fixed flight time (3 minutes in the
paper), tracking the drone with the simulated mocap system and reporting
coverage statistics. The flight is the shared tick loop
(:func:`repro.mission.loop.fly`) with the camera off.
"""

from __future__ import annotations

from typing import Optional

from repro.drone.crazyflie import CrazyflieConfig
from repro.errors import MissionError
from repro.geometry.vec import Vec2
from repro.mission.loop import FlightResult, fly
from repro.obs import MissionTrace
from repro.policies.base import ExplorationPolicy
from repro.seeding import SeedLike
from repro.world.room import Room

#: Flight time of every run in the paper's evaluation, seconds.
DEFAULT_FLIGHT_TIME_S = 180.0


class ExplorationMission:
    """Flies one policy in a room for a fixed duration.

    Args:
        room: the environment.
        policy: an exploration policy (will be ``reset`` per run).
        flight_time_s: duration of each run.
        start: start position; defaults to (1, 1) m.
        start_heading: initial heading, rad.
        drone_config: platform configuration (noise, control rate).
        record: when True, capture a per-tick flight trace; after
            :meth:`run` it is available as :attr:`last_trace`. The
            simulated flight is bit-identical with and without
            recording (the trace is observation, not intervention).
    """

    def __init__(
        self,
        room: Room,
        policy: ExplorationPolicy,
        flight_time_s: float = DEFAULT_FLIGHT_TIME_S,
        start: Optional[Vec2] = None,
        start_heading: float = 0.0,
        drone_config: Optional[CrazyflieConfig] = None,
        record: bool = False,
    ):
        if flight_time_s <= 0.0:
            raise MissionError("flight time must be positive")
        self.room = room
        self.policy = policy
        self.flight_time_s = flight_time_s
        self.start = start
        self.start_heading = start_heading
        self.drone_config = drone_config
        self.record = record
        self.last_trace: Optional[MissionTrace] = None

    def run(self, seed: SeedLike = None) -> FlightResult:
        """Execute one flight and return its statistics.

        Args:
            seed: ``None``, an integer, or a
                :class:`~numpy.random.SeedSequence`. Sensor noise and the
                policy RNG get independent spawned child streams, making
                the run fully reproducible (also under the parallel
                campaign runner).
        """
        result, self.last_trace = fly(
            self.room,
            self.policy,
            self.flight_time_s,
            seed,
            start=self.start,
            start_heading=self.start_heading,
            drone_config=self.drone_config,
            record=self.record,
        )
        return result
