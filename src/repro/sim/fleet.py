"""Fleet-vectorized mission stepping: N same-world missions per tick.

The serial loop batches *within* a control tick (one drone's
Multi-ranger beams per kernel call); this module vectorizes *across
missions*. A fleet block holds the state of N missions that share one
world and one drone configuration as structure-of-arrays numpy arrays
with one column per lane, and rows stacked where one numpy call serves
them all: positions ``(2, N)``, body velocities and yaw rate with their
setpoints ``(3, N)``, and the true and estimated headings ``(2, N)``,
which one wrap, one ``cos`` and one ``sin`` advance together (the gyro
reading does not depend on the collision step). It advances all lanes
in lock-step: one multi-origin raycast
(:meth:`~repro.geometry.raycast.RayCaster.cast_fleet`) resolves every
drone's beams per refresh, and the dynamics, sensor-noise and estimator
updates are single vectorized expressions per tick. The noise blocks
are scaled by their std once, at block setup, and the dropout block is
a bool mask; while every lane is active a tick reads whole arrays, and
only after the first lane retires does it gather the survivors. Only
the genuinely per-mission, branchy pieces stay scalar: the policy state
machines, the sparse camera-frame/detection events, and collision
resolution on the rare blocked tick. Each tick also writes the block's
positions into a ``(ticks + 1, 2, N)`` history; a mission's coverage,
occupancy and path length come from its column of that history when it
finishes, through the same
:meth:`~repro.mapping.occupancy.OccupancyGrid.record_many` the serial
tracker folds its trace with.

The contract is **bit-identity**: a fleet-stepped mission produces
exactly the :class:`~repro.sim.results.MissionRecord` the serial
:func:`~repro.sim.runner.fly_mission` produces, for every preset and
generated world (pinned by ``tests/test_sim_fleet.py``). Three
properties make that possible:

- *Per-sensor seed streams.* Each sensor owns a spawned
  ``SeedSequence`` child (see :class:`~repro.drone.crazyflie.Crazyflie`)
  whose position depends only on the tick / refresh count, so a
  mission's entire noise tape can be pre-drawn as one block per sensor
  and indexed by tick.
- *A shared time base.* Missions in a block share the control period,
  so the accumulated time sequence -- and with it the ToF-refresh,
  mocap and (per-mission) camera-frame schedules -- is computed once
  with the same float operations the serial loop performs.
- *Lane-deterministic numpy.* Elementwise numpy arithmetic evaluates
  the same IEEE operation per lane as the scalar expression it
  replaces, so matching the serial code operator-for-operator yields
  bit-identical floats (``np.cos``/``np.sin``/``np.fmod``/``np.clip``
  equal their ``math`` counterparts elementwise; ``np.exp`` and
  ``np.hypot`` do not, which is why the response constants and the
  path length, ``math.hypot`` per step added in tick order, stay
  scalar). Stacking rows, pre-scaling the noise and updating in place
  keep each element's operations and their order; only the operands of
  a single multiply or add swap sides (``z * std`` for ``std * z``),
  which IEEE arithmetic rounds identically.

Missions that finish early (shorter ``flight_time_s``) are masked out:
their lanes get hover setpoints and stop contributing policy or
detection work; their records are snapshotted at their own final tick.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.drone.controller import SetPoint, VelocityController
from repro.drone.crazyflie import CrazyflieConfig
from repro.drone.dynamics import CRAZYFLIE_RADIUS_M, DroneDynamics, DroneState
from repro.drone.state_estimator import EstimatedState
from repro.errors import MissionError
from repro.geometry.vec import TWO_PI, Vec2, normalize_angle
from repro.mapping.coverage import CoverageSeries
from repro.mapping.mocap import MOCAP_RATE_HZ
from repro.mapping.occupancy import OccupancyGrid
from repro.mission.detector_model import CalibratedDetectorModel
from repro.mission.loop import DetectionEvent, FlightResult
from repro.policies import PolicyConfig, make_policy
from repro.seeding import spawn_streams
from repro.sensors.camera import HimaxCamera
from repro.sensors.flowdeck import FlowDeck
from repro.sensors.imu import Gyro
from repro.sensors.multiranger import BEAM_ANGLES, RangerReading
from repro.sensors.tape import DROPOUT, FLOW, GYRO, RANGE, draw_rows
from repro.sensors.tof import VL53L1X_MAX_RANGE_M, VL53L1X_RATE_HZ
from repro.sim.campaign import MissionSpec
from repro.sim.results import MissionRecord


def _normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.geometry.vec.normalize_angle`, in place.

    Same expression lane-for-lane (``np.fmod`` equals ``math.fmod``
    elementwise), so each entry is bit-identical to the scalar wrap.
    Overwrites and returns ``angles``.
    """
    angles += math.pi
    np.fmod(angles, TWO_PI, out=angles)
    np.add(angles, TWO_PI, out=angles, where=angles <= 0.0)
    angles -= math.pi
    return angles


def fleet_key(spec: MissionSpec) -> tuple:
    """Grouping key: missions sharing it can ride one fleet block."""
    return (spec.scenario.content_hash(), spec.kind)


def fly_fleet(specs: Sequence[MissionSpec]) -> List[MissionRecord]:
    """Fly a block of same-world missions in lock-step.

    Args:
        specs: missions sharing one scenario (hence one world, start
            pose and drone configuration) and one kind. Policies,
            speeds, operating points, seeds and flight times may differ
            per mission.

    Returns:
        One :class:`~repro.sim.results.MissionRecord` per spec, in spec
        order, each bit-identical to ``fly_mission(spec)[0]``.

    Raises:
        MissionError: when the specs do not share a (world, kind), or a
            flight time is non-positive.
    """
    if not specs:
        return []
    kind = specs[0].kind
    key = fleet_key(specs[0])
    for spec in specs[1:]:
        if fleet_key(spec) != key:
            raise MissionError(
                "a fleet block must share one (world, kind); got "
                f"{fleet_key(spec)} vs {key}"
            )
    for spec in specs:
        if spec.flight_time_s <= 0.0:
            raise MissionError("flight time must be positive")

    scenario = specs[0].scenario
    room = scenario.build_room()
    caster = room.raycaster
    config = scenario.drone_config() or CrazyflieConfig()
    noisy = config.noisy
    start = scenario.start_position()
    if start is None:
        start = Vec2(1.0, 1.0)
    heading0 = scenario.start_heading if kind == "explore" else 0.0
    # Same validation (and same exception) as the serial drone assembly.
    DroneDynamics(
        room=room,
        state=DroneState(position=start, heading=heading0),
        velocity_tau=config.velocity_tau,
        yaw_tau=config.yaw_tau,
    )

    n = len(specs)
    dt = 1.0 / config.control_rate_hz
    n_steps = [int(round(spec.flight_time_s / dt)) for spec in specs]
    n_max = max(n_steps)

    # -- shared schedules ---------------------------------------------------
    # One pass computes the exact float time sequence of the serial loop
    # (t accumulates by repeated addition) and, from it, the ToF-refresh
    # and mocap gates every lane shares.
    tof_period = 1.0 / VL53L1X_RATE_HZ
    mocap_period = 1.0 / MOCAP_RATE_HZ
    times_pre: List[float] = []
    times_post: List[float] = []
    refresh: List[bool] = []
    mocap_dt: List[float] = []  # sample dt per tick; -1.0 = no sample
    t = 0.0
    last_tof = -math.inf
    have_reading = False
    last_mocap: Optional[float] = None
    for _ in range(n_max):
        times_pre.append(t)
        if not have_reading or t - last_tof >= tof_period - 1e-9:
            refresh.append(True)
            last_tof = t
            have_reading = True
        else:
            refresh.append(False)
        t = t + dt
        times_post.append(t)
        if last_mocap is not None and t - last_mocap < mocap_period - 1e-9:
            mocap_dt.append(-1.0)
        else:
            mocap_dt.append(mocap_period if last_mocap is not None else 0.0)
            last_mocap = t
    r_total = sum(refresh)
    mocap_dts = np.array(mocap_dt, dtype=np.float64)
    sample_ticks = np.flatnonzero(mocap_dts >= 0.0)
    sample_times = np.array(times_post, dtype=np.float64)[sample_ticks]

    # -- per-mission setup --------------------------------------------------
    updates: List[Callable[..., SetPoint]] = []
    readings: List[Optional[RangerReading]] = [None] * n
    det_rngs: List[np.random.Generator] = []
    channels: List[CalibratedDetectorModel] = []
    frame_periods: List[float] = []
    objects = scenario.build_objects() if kind == "search" else []
    camera = HimaxCamera()
    scale = np.ones(n, dtype=np.float64)
    bias = np.zeros(n, dtype=np.float64)
    # Noise blocks, laid out so a tick (refresh) reads one contiguous
    # slice: flow (vx, vy) and gyro noise by tick, dropouts and range
    # noise by refresh. The flow deck's height noise is drawn, not used.
    flow_z = np.empty((n_max, 2, n), dtype=np.float64) if noisy else None
    gyro_z = np.empty((n_max, n), dtype=np.float64) if noisy else None
    dropped = np.empty((r_total, n, 4), dtype=bool) if noisy else None
    tof_z = np.empty((r_total, n, 4), dtype=np.float64) if noisy else None
    for j, spec in enumerate(specs):
        seed = spec.seed_sequence()
        if kind == "explore":
            drone_stream, policy_stream = spawn_streams(seed, 2)
        else:
            drone_stream, policy_stream, detector_stream = spawn_streams(seed, 3)
            det_rngs.append(np.random.default_rng(detector_stream))
            op = spec.operating_point()
            channel = CalibratedDetectorModel(op)
            channel.reset()
            channels.append(channel)
            frame_periods.append(1.0 / op.fps)
        policy = make_policy(spec.policy, PolicyConfig(cruise_speed=spec.speed))
        policy.reset(policy_stream)
        updates.append(policy.update)
        if noisy:
            assert flow_z is not None and gyro_z is not None
            assert dropped is not None and tof_z is not None
            # Same spawn order as Crazyflie.__init__, and the same init
            # draws: constructing the deck objects on the live generator
            # consumes the calibration draws (flow scale, gyro bias)
            # exactly as the serial drone does, then the rest of each
            # stream is pulled as one block of the rows its serial tape
            # reads (repro.sensors.tape).
            flow_stream, gyro_stream, drop_stream, noise_stream = spawn_streams(
                drone_stream, 4
            )
            flow_gen = np.random.default_rng(flow_stream)
            scale[j] = FlowDeck(
                velocity_noise_std=config.odometry_noise_std, rng=flow_gen
            ).scale
            flow_z[:, :, j] = draw_rows(flow_gen, FLOW, n_max)[:, :2]
            gyro_gen = np.random.default_rng(gyro_stream)
            bias[j] = Gyro(noise_std=config.gyro_noise_std, rng=gyro_gen).bias
            gyro_z[:, j] = draw_rows(gyro_gen, GYRO, n_max)[:, 0]
            # A beam drops out where its uniform draw is below the
            # dropout probability: the serial comparison, made in advance.
            dropped[:, j] = (
                draw_rows(np.random.default_rng(drop_stream), DROPOUT, r_total)
                < config.tof_dropout_prob
            )
            tof_z[:, j] = draw_rows(np.random.default_rng(noise_stream), RANGE, r_total)

    if noisy:
        assert flow_z is not None and gyro_z is not None and tof_z is not None
        # Scaled in place by their std, once: z * std is the std * z a
        # tick would compute.
        flow_z *= config.odometry_noise_std
        gyro_z *= config.gyro_noise_std
        tof_z *= config.tof_noise_std

    # -- shared constants ---------------------------------------------------
    mounts = np.array(
        [normalize_angle(a) for a in BEAM_ANGLES.values()], dtype=np.float64
    )
    max_range = VL53L1X_MAX_RANGE_M
    controller = VelocityController()
    vmax = controller.max_speed
    wmax = controller.max_yaw_rate
    alpha_v = 1.0 - math.exp(-dt / config.velocity_tau)
    alpha_w = 1.0 - math.exp(-dt / config.yaw_tau)
    alpha = np.array([[alpha_v], [alpha_v], [alpha_w]], dtype=np.float64)
    margin = CRAZYFLIE_RADIUS_M

    # -- structure-of-arrays state ------------------------------------------
    # Stacked rows share one numpy call: positions (x, y), body
    # velocities and yaw rate (vx, vy, wz) with their setpoints, and
    # headings (true, estimated) with their rates (wz, gyro reading).
    pos = np.empty((2, n), dtype=np.float64)
    pos[0] = start.x
    pos[1] = start.y
    vel = np.zeros((3, n), dtype=np.float64)
    sp = np.zeros((3, n), dtype=np.float64)
    hd = np.full((2, n), heading0, dtype=np.float64)
    rates = np.zeros((2, n), dtype=np.float64)
    est_pos = pos.copy()
    est_vel = np.zeros((2, n), dtype=np.float64)
    # Row k holds every lane's position after k ticks.
    hist = np.empty((n_max + 1, 2, n), dtype=np.float64)
    hist[0] = pos
    collisions = [0] * n
    frames = [0] * n
    first_det: List[Dict[str, DetectionEvent]] = [dict() for _ in range(n)]
    records: List[Optional[MissionRecord]] = [None] * n
    finishing: Dict[int, List[int]] = {}
    for i, n_i in enumerate(n_steps):
        finishing.setdefault(n_i - 1, []).append(i)

    active = list(range(n))
    act = np.arange(n, dtype=np.intp)
    r = 0  # refresh row index, shared by every lane

    def _snapshot(i: int) -> MissionRecord:
        """Mission ``i``'s record, from its column of the position history."""
        spec = specs[i]
        n_i = n_steps[i]
        xs = hist[: n_i + 1, 0, i]
        ys = hist[: n_i + 1, 1, i]
        distance = 0.0
        for step_x, step_y in zip(np.diff(xs).tolist(), np.diff(ys).tolist()):
            distance += math.hypot(step_x, step_y)
        n_samples = int(np.searchsorted(sample_ticks, n_i))
        ticks = sample_ticks[:n_samples]
        grid = OccupancyGrid(room, start=start)
        coverage = grid.record_many(xs[ticks + 1], ys[ticks + 1], mocap_dts[ticks])
        events = sorted(first_det[i].values(), key=lambda e: e.time_s)
        result = FlightResult(
            coverage=grid.coverage(),
            series=CoverageSeries.from_arrays(sample_times[:n_samples], coverage),
            collisions=collisions[i],
            flight_time_s=spec.flight_time_s,
            distance_flown_m=distance,
            coverage_raw=grid.coverage_raw(),
            reachable_cells=grid.reachable_cells,
            grid_cells=grid.n_cells,
            grid=grid,
            detection_rate=len(events) / len(objects) if kind == "search" else 0.0,
            events=events,
            frames_processed=frames[i],
        )
        return MissionRecord.from_flight(spec, result)

    for k in range(n_max):
        every = len(active) == n  # gathers by ``act`` only once lanes retire
        # -- Multi-ranger refresh (shared 20 Hz schedule) -------------------
        if refresh[k]:
            h_a = hd[0] if every else hd[0, act]
            beams = _normalize_angles(h_a[:, None] + mounts[None, :])
            origins = np.repeat(pos if every else pos[:, act], 4, axis=1)
            hits = caster.cast_fleet(
                origins[0],
                origins[1],
                np.cos(beams).ravel(),
                np.sin(beams).ravel(),
                max_range,
            ).reshape(len(active), 4)
            true_d = np.minimum(hits, max_range)
            if noisy:
                assert dropped is not None and tof_z is not None
                vals = np.where(
                    dropped[r] if every else dropped[r, act],
                    max_range,
                    np.clip(
                        true_d + (tof_z[r] if every else tof_z[r, act]),
                        0.0,
                        max_range,
                    ),
                )
            else:
                vals = true_d
            for i, (front, left, back, right) in zip(active, vals.tolist()):
                readings[i] = RangerReading(front, back, left, right, max_range)
            r += 1

        # -- policy evaluation (scalar state machines) ----------------------
        est_t = times_pre[k]
        (ex, ey), eh = est_pos.tolist(), hd[1].tolist()
        (evx, evy), ewz = est_vel.tolist(), rates[1].tolist()
        fs: List[float] = []
        ss: List[float] = []
        ws: List[float] = []
        for i in active:
            setpoint = updates[i](
                readings[i],
                EstimatedState(Vec2(ex[i], ey[i]), eh[i], evx[i], evy[i], ewz[i], est_t),
            )
            f_ = setpoint.forward
            s_ = setpoint.side
            w_ = setpoint.yaw_rate
            if not (
                -vmax <= f_ <= vmax
                and -vmax <= s_ <= vmax
                and -wmax <= w_ <= wmax
            ):
                f_ = max(-vmax, min(vmax, f_))
                s_ = max(-vmax, min(vmax, s_))
                w_ = max(-wmax, min(wmax, w_))
            fs.append(f_)
            ss.append(s_)
            ws.append(w_)
        if every:
            sp[...] = (fs, ss, ws)
        else:
            sp[:, act] = (fs, ss, ws)

        # -- dynamics and gyro (vectorized) ---------------------------------
        # vel + alpha * (sp - vel), in place.
        vel_n = sp - vel
        vel_n *= alpha
        vel_n += vel
        wz_n = vel_n[2]
        # The gyro reads the new yaw rate, which no collision changes,
        # so both headings advance in one wrap, cos and sin.
        rates = np.empty((2, n), dtype=np.float64)
        rates[0] = wz_n
        gyro = rates[1]
        if noisy:
            assert gyro_z is not None
            np.add(wz_n, bias, out=gyro)
            gyro += gyro_z[k]
        else:
            gyro[:] = wz_n
        hd_n = rates * dt
        hd_n += hd
        _normalize_angles(hd_n)
        (ch, ech), (sh, esh) = np.cos(hd_n), np.sin(hd_n)
        # World-frame step: ((ch*vx - sh*vy)*dt, (sh*vx + ch*vy)*dt).
        c_v = ch * vel_n[:2]
        s_v = sh * vel_n[:2]
        step = np.empty((2, n), dtype=np.float64)
        np.subtract(c_v[0], s_v[1], out=step[0])
        np.add(s_v[0], c_v[1], out=step[1])
        step *= dt
        target = pos + step
        free = room.is_free_many(target[0], target[1], margin)
        pos_n = np.where(free, target, pos)
        # -- collisions (scalar, on the rare blocked lane) ------------------
        if np.count_nonzero(free) < n:
            for i in np.flatnonzero(~free).tolist():
                if n_steps[i] <= k:
                    # Masked-out lane drifting after its mission ended:
                    # park it; its record is already snapshotted.
                    vel_n[0, i] = 0.0
                    vel_n[1, i] = 0.0
                    continue
                sx = float(pos[0, i])
                sy = float(pos[1, i])
                new_pos = Vec2(sx + float(step[0, i]), sy)
                if not room.is_free(new_pos, margin):
                    new_pos = Vec2(sx, sy + float(step[1, i]))
                    if not room.is_free(new_pos, margin):
                        new_pos = Vec2(sx, sy)
                collisions[i] += 1
                actual_x = (new_pos.x - sx) / dt
                actual_y = (new_pos.y - sy) / dt
                c_ = float(ch[i])
                s_c = float(sh[i])
                vel_n[0, i] = c_ * actual_x + s_c * actual_y
                vel_n[1, i] = -s_c * actual_x + c_ * actual_y
                pos_n[0, i] = new_pos.x
                pos_n[1, i] = new_pos.y
        hist[k + 1] = pos_n

        # -- estimator (vectorized flow fusion, after collisions) -----------
        if noisy:
            assert flow_z is not None
            meas = scale * vel_n[:2]
            meas += flow_z[k]
        else:
            meas = vel_n[:2]
        c_m = ech * meas
        s_m = esh * meas
        est_step = np.empty((2, n), dtype=np.float64)
        np.subtract(c_m[0], s_m[1], out=est_step[0])
        np.add(s_m[0], c_m[1], out=est_step[1])
        est_step *= dt
        est_pos += est_step
        est_vel = meas

        # -- sparse camera frames -------------------------------------------
        if kind == "search":
            t_post = times_post[k]
            for i in active:
                if t_post + 1e-9 >= frames[i] * frame_periods[i]:
                    frames[i] += 1
                    pos_i = Vec2(float(pos_n[0, i]), float(pos_n[1, i]))
                    heading = float(hd_n[0, i])
                    state = DroneState(
                        pos_i,
                        heading,
                        float(vel_n[0, i]),
                        float(vel_n[1, i]),
                        float(vel_n[2, i]),
                        t_post,
                    )
                    observations = camera.observe(caster, pos_i, heading, objects)
                    for obs in channels[i].detect(observations, state, det_rngs[i]):
                        name = obs.obj.name
                        if name not in first_det[i]:
                            first_det[i][name] = DetectionEvent(
                                object_name=name,
                                object_class=obs.obj.object_class.value,
                                time_s=t_post,
                                distance_m=obs.distance_m,
                            )

        pos, vel, hd = pos_n, vel_n, hd_n

        # -- early-finish masking -------------------------------------------
        done_now = finishing.get(k)
        if done_now:
            for i in done_now:
                records[i] = _snapshot(i)
                sp[:, i] = 0.0
            active = [i for i in active if n_steps[i] > k + 1]
            if not active:
                break
            act = np.array(active, dtype=np.intp)

    out = []
    for i, record in enumerate(records):
        assert record is not None, f"mission {i} never finished"
        out.append(record)
    return out
