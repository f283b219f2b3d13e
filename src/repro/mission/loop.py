"""The one mission tick loop, :func:`fly`, and the results it returns.

The STM32 runs one exploration control loop whether or not the GAP8
detector consumes camera frames: exploration-only runs (Sec. IV-B) and
the closed-loop search (Sec. IV-C) are the same flight with the camera
off or on. The loop records the trajectory and nothing more; coverage
follows from the mocap trace after the flight, as in the paper. Recording
only observes, so a recorded flight is bit-identical to an unrecorded
one; its phase timings come from wrapping the loop's bound callables in
:meth:`~repro.obs.FlightRecorder.timed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.drone.crazyflie import Crazyflie, CrazyflieConfig
from repro.geometry.vec import Vec2
from repro.mapping.coverage import CoverageSeries
from repro.mapping.mocap import MotionCaptureTracker, TrackedSample
from repro.mapping.occupancy import OccupancyGrid
from repro.mission.detector_model import DetectionChannel
from repro.obs import FlightRecorder, MissionTrace
from repro.policies.base import ExplorationPolicy
from repro.seeding import SeedLike, spawn_streams
from repro.world.objects import SceneObject
from repro.world.room import Room


@dataclass(frozen=True)
class DetectionEvent:
    """First successful detection of one object."""

    object_name: str
    object_class: str
    time_s: float
    distance_m: float


@dataclass
class FlightResult:
    """Outcome of one flight, exploration-only or closed-loop search.

    ``coverage`` is normalized by the grid cells *reachable* from the
    start pose (free space connected to it), so a perfect sweep reports
    1.0 on any world; ``coverage_raw`` keeps the historical
    visited-over-all-cells fraction, which undercounts on worlds whose
    grid has cells inside obstacles or sealed pockets.

    An exploration flight leaves the detection fields empty. The fleet
    stepper keeps no mocap tracker, so its results read ``samples`` as
    ``None``.
    """

    coverage: float  #: fraction of reachable free-space cells visited, [0, 1]
    series: CoverageSeries  #: coverage over time
    collisions: int  #: control ticks with blocked motion
    flight_time_s: float  #: simulated flight duration
    distance_flown_m: float  #: integrated path length
    coverage_raw: float = 0.0  #: fraction of all grid cells visited, [0, 1]
    reachable_cells: int = 0  #: grid cells reachable from the start pose
    grid_cells: int = 0  #: total grid cells (the coverage_raw denominator)
    grid: Optional[OccupancyGrid] = None  #: final occupancy grid
    tracker: Optional[MotionCaptureTracker] = None  #: the flight's mocap trace
    detection_rate: float = 0.0  #: detected objects / placed objects
    events: List[DetectionEvent] = field(default_factory=list)
    frames_processed: int = 0  #: camera frames the detector consumed

    def time_to_full_detection(self) -> Optional[float]:
        """Time of the last first-detection if every object was found."""
        if self.detection_rate < 1.0 or not self.events:
            return None
        return max(e.time_s for e in self.events)

    @cached_property
    def samples(self) -> Optional[List[TrackedSample]]:
        """The mocap trajectory, built on first read (``None`` without a tracker)."""
        return None if self.tracker is None else self.tracker.samples


def fly(
    room: Room,
    policy: ExplorationPolicy,
    flight_time_s: float,
    seed: SeedLike = None,
    start: Optional[Vec2] = None,
    start_heading: float = 0.0,
    drone_config: Optional[CrazyflieConfig] = None,
    objects: Sequence[SceneObject] = (),
    channel: Optional[DetectionChannel] = None,
    fps: float = 0.0,
    record: bool = False,
) -> Tuple[FlightResult, Optional[MissionTrace]]:
    """Set up the drone and fly one mission; returns ``(result, trace)``.

    Sensors, policy and detector draw from independent children of
    ``seed``. Without a detection ``channel`` the camera stays off and
    the result's detection fields stay empty; with one, frames of
    ``objects`` are taken at the detector's ``fps``. The trace is
    ``None`` unless ``record``.
    """
    drone_stream, policy_stream, detector_stream = spawn_streams(seed, 3)
    drone = Crazyflie(
        room, start=start, heading=start_heading, config=drone_config, seed=drone_stream
    )
    policy.reset(policy_stream)
    if channel is not None:
        channel.reset()
        rng = np.random.default_rng(detector_stream)
        frame_period = 1.0 / fps
    tracker = MotionCaptureTracker(room, start=drone.state.position)
    first_detection: Dict[str, DetectionEvent] = {}
    frames = 0
    distance = 0.0
    last_pos = drone.state.position
    n_steps = int(round(flight_time_s / drone.dt))

    read_ranger, update, step = drone.read_ranger, policy.update, drone.step
    observe, look = tracker.observe, drone.camera.observe
    detect = None if channel is None else channel.detect
    recorder = None
    if record:
        recorder = FlightRecorder("explore" if channel is None else "search")
        timed = recorder.timed
        read_ranger = timed("ranger", read_ranger)
        update = timed("policy", update)
        step = timed("step", step)
        observe = timed("mocap", observe)
        if detect is not None:
            look = timed("camera", look)
            detect = timed("detect", detect)
    for _ in range(n_steps):
        reading = read_ranger()
        estimate = drone.estimated_state
        setpoint = update(reading, estimate)
        state = step(setpoint)
        distance += state.position.distance_to(last_pos)
        last_pos = state.position
        observe(state)
        # Frame times derive from the frame index: repeatedly adding
        # frame_period accumulates float error over the ~18k ticks of
        # a 180 s flight and slowly drifts the camera schedule.
        if detect is not None and state.time + 1e-9 >= frames * frame_period:
            frames += 1
            observations = look(room.raycaster, state.position, state.heading, objects)
            if recorder is not None:
                recorder.frame(state.time, len(observations))
            for obs in detect(observations, state, rng):
                name = obs.obj.name
                if name not in first_detection:
                    cls = obs.obj.object_class.value
                    first_detection[name] = DetectionEvent(
                        name, cls, state.time, obs.distance_m
                    )
                    if recorder is not None:
                        recorder.detection(name, cls, state.time, obs.distance_m)
        if recorder is not None:
            recorder.tick(
                state, estimate, setpoint, reading, drone.dynamics.collision_count
            )

    coverage = tracker.coverage()
    series = tracker.series()
    events = sorted(first_detection.values(), key=lambda e: e.time_s)
    result = FlightResult(
        coverage=coverage,
        series=series,
        collisions=drone.dynamics.collision_count,
        flight_time_s=flight_time_s,
        distance_flown_m=distance,
        coverage_raw=tracker.coverage_raw(),
        reachable_cells=tracker.reachable_cells,
        grid_cells=tracker.grid.n_cells,
        grid=tracker.grid,
        tracker=tracker,
        detection_rate=0.0 if channel is None else len(events) / len(objects),
        events=events,
        frames_processed=frames,
    )
    if recorder is None:
        return result, None
    for t, value in zip(series.times.tolist(), series.coverage.tolist()):
        recorder.coverage_sample(t, value)
    final = {
        k: getattr(result, k)
        for k in (
            "coverage", "collisions", "distance_flown_m", "coverage_raw",
            "reachable_cells", "grid_cells", "flight_time_s",
        )
    }
    if channel is not None:
        final.update(
            detection_rate=result.detection_rate,
            frames_processed=result.frames_processed,
            n_objects=len(objects),
        )
    return result, recorder.finish(final)
