"""The simulation core's fast paths vs. their references.

The tick loop runs one sensor path: batched Multi-ranger casts, block
noise draws, batched camera occlusion, grid-accelerated raycasting and
vectorized free-space queries. Each must be *bit-identical* to the
per-item reference it replaced -- same RNG stream consumption, same IEEE
arithmetic -- so these tests pin every fast path against its reference
directly: ``accel="none"`` against ``accel="auto"`` at mission level,
and ``MultiRangerDeck.read``, ``HimaxCamera.observe_object`` and
``FlowDeck.read``/``Gyro.read``/``StateEstimator.update`` against the
methods the tick loop calls.
"""

import math

import numpy as np
import pytest

from repro.drone.controller import SetPoint
from repro.drone.crazyflie import Crazyflie, CrazyflieConfig
from repro.mapping.coverage import CoverageSeries
from repro.mapping.mocap import MotionCaptureTracker
from repro.mapping.occupancy import OccupancyGrid
from repro.mission.closed_loop import ClosedLoopMission
from repro.mission.detector_model import (
    CalibratedDetectorModel,
    DetectorOperatingPoint,
    paper_operating_points,
)
from repro.policies import PolicyConfig
from repro.policies.registry import make_policy
from repro.seeding import spawn_streams
from repro.sensors.camera import CameraIntrinsics, HimaxCamera
from repro.sensors.flowdeck import FlowDeck
from repro.sensors.imu import Gyro
from repro.sensors.multiranger import MultiRangerDeck
from repro.sensors.tape import REFRESH_BLOCK, TICK_BLOCK
from repro.sim import get_scenario
from repro.world.room import Room
from repro.geometry.vec import Vec2


def build_mission(name, flight_time=12.0, accel="auto", op=None):
    scenario = get_scenario(name)
    op = op or paper_operating_points()[scenario.ssd_width]
    policy = make_policy(
        scenario.policy, PolicyConfig(cruise_speed=scenario.cruise_speed)
    )
    room = Room(
        scenario.room.width,
        scenario.room.length,
        [o.build() for o in scenario.room.obstacles],
        accel=accel,
    )
    return ClosedLoopMission(
        room,
        scenario.build_objects(),
        policy,
        CalibratedDetectorModel(op),
        op,
        flight_time_s=flight_time,
        start=scenario.start_position(),
        drone_config=CrazyflieConfig(noisy=scenario.noisy),
    )


def assert_results_identical(a, b):
    assert a.events == b.events
    assert a.coverage == b.coverage
    assert a.collisions == b.collisions
    assert a.distance_flown_m == b.distance_flown_m
    assert a.frames_processed == b.frames_processed
    assert a.series.times.tolist() == b.series.times.tolist()
    assert a.series.coverage.tolist() == b.series.coverage.tolist()
    assert [(s.time, s.position, s.heading) for s in a.samples] == [
        (s.time, s.position, s.heading) for s in b.samples
    ]


def random_poses(room, n, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            Vec2(rng.uniform(0.0, room.width), rng.uniform(0.0, room.length)),
            rng.uniform(-math.pi, math.pi),
        )
        for _ in range(n)
    ]


class TestMissionBitIdentity:
    @pytest.mark.parametrize(
        "scenario", ["paper-room", "dense-depot", "apartment", "corridor-maze"]
    )
    def test_accel_none_equals_auto(self, scenario):
        reference = build_mission(scenario, accel="none").run(seed=7)
        accelerated = build_mission(scenario, accel="auto").run(seed=7)
        assert_results_identical(reference, accelerated)


class TestSensorReferences:
    """Each tick-loop sensor method against its per-item reference."""

    def test_ranger_read_equals_read_batched(self):
        def deck():
            # Same seeds on both twins; dropout and noise high enough
            # that both branches of the noise model fire often.
            return MultiRangerDeck(
                noise_std=0.05,
                dropout_prob=0.1,
                rng=np.random.default_rng(5),
                noise_rng=np.random.default_rng(6),
            )

        for name in ("paper-room", "dense-depot", "corridor-maze"):
            room = get_scenario(name).build_room()
            reference, batched = deck(), deck()
            for position, heading in random_poses(room, 300, seed=9):
                a = reference.read(room.raycaster, position, heading)
                b = batched.read_batched(room.raycaster, position, heading)
                assert [v.hex() for v in a.as_dict().values()] == [
                    v.hex() for v in b.as_dict().values()
                ], (name, position, heading)

    def test_camera_observe_equals_observe_object(self):
        # Worlds with interior walls, so some in-view objects are
        # occluded; corridor-maze casts brute-force, dense-depot on the grid.
        camera = HimaxCamera()
        for name in ("corridor-maze", "dense-depot"):
            scenario = get_scenario(name)
            room = scenario.build_room()
            objects = scenario.build_objects()
            seen = 0
            for position, heading in random_poses(room, 400, seed=4):
                observed = camera.observe(room.raycaster, position, heading, objects)
                reference = [
                    obs
                    for obs in (
                        camera.observe_object(room.raycaster, position, heading, obj)
                        for obj in objects
                    )
                    if obs is not None
                ]
                assert observed == reference, (name, position, heading)
                seen += len(observed)
            assert seen > 0, name

    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "noise-free"])
    def test_step_equals_reference_sensors(self, noisy):
        room = get_scenario("paper-room").build_room()
        config = CrazyflieConfig(noisy=noisy)
        drone = Crazyflie(room, config=config, seed=42)
        twin = Crazyflie(room, config=config, seed=42)
        rng = np.random.default_rng(0)
        for _ in range(200):
            setpoint = SetPoint(
                forward=rng.uniform(-0.5, 1.0),
                side=rng.uniform(-0.3, 0.3),
                yaw_rate=rng.uniform(-2.0, 2.0),
            )
            drone.step(setpoint)
            state = twin.dynamics.step(twin.controller.clamp(setpoint), twin.dt)
            odometry = twin.flowdeck.read(
                state.vx_body, state.vy_body, twin.camera.height_m
            )
            rate = twin.gyro.read(state.yaw_rate)
            twin.estimator.update(odometry, rate, twin.dt)
            assert drone.state == twin.state
            assert drone.estimated_state == twin.estimated_state


    def test_tapes_equal_draws_once_per_tick_or_refresh(self):
        # Long enough for every tape to refill at least twice: the ToF
        # deck refreshes every third tick.
        n_ticks = max(2 * TICK_BLOCK, 3 * 2 * REFRESH_BLOCK) + 60
        room = get_scenario("dense-depot").build_room()
        config = CrazyflieConfig(tof_noise_std=0.05, tof_dropout_prob=0.1)
        seed = np.random.SeedSequence(42)
        drone = Crazyflie(room, start=Vec2(1.0, 1.0), config=config, seed=seed)
        twin = Crazyflie(room, start=Vec2(1.0, 1.0), config=config, seed=seed)
        # Twin generators spawned and calibrated as the drone's, then
        # drawn one tick or one refresh at a time.
        flow, gyro, drop, noise = (
            np.random.default_rng(s) for s in spawn_streams(seed, 4)
        )
        FlowDeck(velocity_noise_std=config.odometry_noise_std, rng=flow)
        Gyro(noise_std=config.gyro_noise_std, rng=gyro)
        drawn = {"tick": 0, "refresh": 0}

        def rows(draw, unit):
            while True:
                drawn[unit] += 1
                yield draw().tolist()

        twin._flow_tape = rows(lambda: flow.standard_normal(3), "tick")
        twin._gyro_tape = rows(lambda: gyro.standard_normal(1), "tick")
        twin.multiranger._dropout = rows(lambda: drop.random(4), "refresh")
        twin.multiranger._noise = rows(lambda: noise.standard_normal(4), "refresh")
        rng = np.random.default_rng(0)
        for _ in range(n_ticks):
            a, b = drone.read_ranger(), twin.read_ranger()
            assert [v.hex() for v in a.as_dict().values()] == [
                v.hex() for v in b.as_dict().values()
            ]
            setpoint = SetPoint(
                forward=rng.uniform(-0.5, 1.0),
                side=rng.uniform(-0.3, 0.3),
                yaw_rate=rng.uniform(-2.0, 2.0),
            )
            assert drone.step(setpoint) == twin.step(setpoint)
            assert drone.estimated_state == twin.estimated_state
        assert drawn["tick"] == 2 * n_ticks
        assert drawn["refresh"] > 2 * 2 * REFRESH_BLOCK


class TestFramePacing:
    def _run(self, fps, flight_time):
        op = DetectorOperatingPoint("pacing", fps=fps, map_score=0.5)
        return build_mission("paper-room", flight_time=flight_time, op=op).run(seed=1)

    def test_frame_count_exact_for_inexact_period(self):
        # fps=2.3 has a non-representable period; index-derived frame
        # times must not drift: 33 s * 2.3 fps = 75.9 -> 76 frames
        # (one at t~0, then one per full period).
        result = self._run(fps=2.3, flight_time=33.0)
        assert result.frames_processed == 76

    def test_frame_count_exact_for_exact_period(self):
        # fps=1.6 -> period 0.625 is exactly representable; 30 s covers
        # frame times 0, 0.625, ..., 30.0 (the final tick lands within
        # the 1 ns trigger slack of t=30.0) -> 49 frames.
        result = self._run(fps=1.6, flight_time=30.0)
        assert result.frames_processed == 49

    def test_high_fps_capped_by_tick_rate(self):
        # At 200 fps > 50 Hz control, at most one frame per tick.
        result = self._run(fps=200.0, flight_time=2.0)
        assert result.frames_processed == 100


class TestCoverageSeriesVectorized:
    def _series(self, times, cov):
        s = CoverageSeries()
        for t, c in zip(times, cov):
            s.append(t, c)
        return s

    def test_at_many_matches_at(self):
        s = self._series([0.5, 1.0, 2.5, 7.0], [0.1, 0.2, 0.5, 0.9])
        grid = np.array([0.0, 0.49, 0.5, 0.75, 1.0, 2.5, 3.0, 7.0, 100.0])
        assert s.at_many(grid).tolist() == [s.at(t) for t in grid]

    def test_at_many_empty_series(self):
        s = CoverageSeries()
        assert s.at_many(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]

    def test_mean_and_variance_matches_per_point_loop(self):
        rng = np.random.default_rng(8)
        series = []
        for _ in range(5):
            n = int(rng.integers(1, 30))
            times = np.sort(rng.uniform(0.0, 60.0, size=n))
            cov = np.sort(rng.uniform(0.0, 1.0, size=n))
            series.append(self._series(times, cov))
        grid = np.linspace(0.0, 70.0, 101)
        mean, var = CoverageSeries.mean_and_variance(series, grid)
        ref_values = np.array(
            [[s.at(t) for t in grid] for s in series], dtype=np.float64
        )
        assert mean.tolist() == ref_values.mean(axis=0).tolist()
        assert var.tolist() == ref_values.var(axis=0).tolist()

    def test_mean_and_variance_needs_series(self):
        with pytest.raises(ValueError):
            CoverageSeries.mean_and_variance([], np.array([0.0]))


class TestLeanStateTracking:
    def test_occupancy_incremental_count_matches_mask(self):
        room = get_scenario("paper-room").build_room()
        grid = OccupancyGrid(room)
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = Vec2(rng.uniform(0, room.width), rng.uniform(0, room.length))
            grid.record(p, 0.02)
        assert grid.visited_count() == int(grid.visited_mask.sum())
        assert grid.coverage() == grid.visited_count() / grid.n_cells
        assert grid.occupancy_time.sum() == pytest.approx(500 * 0.02)

    def test_tracker_samples_materialized(self):
        room = get_scenario("paper-room").build_room()
        tracker = MotionCaptureTracker(room)
        drone = Crazyflie(room, config=CrazyflieConfig(noisy=False))
        for _ in range(25):
            state = drone.step(SetPoint(forward=0.4))
            tracker.observe(state)
        samples = tracker.samples
        times, xs, ys, headings = tracker.trajectory_arrays()
        assert len(samples) == len(times) > 0
        assert [s.time for s in samples] == times.tolist()
        assert [s.position.x for s in samples] == xs.tolist()
        assert [s.position.y for s in samples] == ys.tolist()
        assert [s.heading for s in samples] == headings.tolist()

    def test_room_queries_match_reference_loops(self):
        room = get_scenario("dense-depot").build_room()
        rng = np.random.default_rng(4)
        margin = 0.07

        def reference_is_free(p):
            if not room.bounds.contains(p, margin=margin):
                return False
            for obs in room.obstacles:
                if obs.contains(p):
                    return False
                if any(s.distance_to_point(p) < margin for s in obs.segments()):
                    return False
            return True

        for _ in range(400):
            p = Vec2(rng.uniform(-0.5, room.width + 0.5), rng.uniform(-0.5, room.length + 0.5))
            assert room.is_free(p, margin=margin) == reference_is_free(p), p
        for _ in range(100):
            p = Vec2(rng.uniform(0, room.width), rng.uniform(0, room.length))
            if room.is_free(p):
                ref = min(s.distance_to_point(p) for s in room.all_segments())
                assert room.clearance(p) == pytest.approx(ref, abs=1e-12)


class TestCameraIntrinsicsCache:
    def test_focal_cached_and_correct(self):
        intr = CameraIntrinsics(320, 240, math.radians(65.0))
        expected = (320 / 2.0) / math.tan(math.radians(65.0) / 2.0)
        assert "focal_px" not in intr.__dict__
        assert intr.focal_px == expected
        assert "focal_px" in intr.__dict__  # cached after first access
        assert intr.vfov_rad == 2.0 * math.atan((240 / 2.0) / expected)

    def test_scaled_keeps_fov(self):
        intr = CameraIntrinsics(320, 240, math.radians(65.0))
        half = intr.scaled(160, 120)
        assert half.hfov_rad == intr.hfov_rad
        assert half.focal_px == pytest.approx(intr.focal_px / 2.0)
