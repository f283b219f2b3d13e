"""Fleet-vectorized mission stepping: N same-world missions per tick.

PR 2 vectorized *within* a control tick (one drone's Multi-ranger beams
per kernel call); this module vectorizes *across missions*. A fleet
block holds the state of N missions that share one world and one drone
configuration as structure-of-arrays ``(N,)`` numpy arrays -- positions,
velocities, estimator state, setpoints -- and advances all of them in
lock-step: one multi-origin raycast
(:meth:`~repro.geometry.raycast.RayCaster.cast_fleet`) resolves every
drone's beams per refresh, and the dynamics, sensor-noise and estimator
updates are single vectorized expressions per tick. Only the genuinely
per-mission, branchy pieces stay scalar: the policy state machines, the
sparse camera-frame/detection events, and collision resolution on the
rare blocked tick. Each tick also writes the block's positions into an
``(N, ticks + 1)`` history; a mission's coverage, occupancy and path
length come from its row of that history when it finishes, through the
same :meth:`~repro.mapping.occupancy.OccupancyGrid.record_many` the
serial tracker folds its trace with.

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
  scalar).

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
    """Vectorized :func:`~repro.geometry.vec.normalize_angle`.

    Same expression lane-for-lane (``np.fmod`` equals ``math.fmod``
    elementwise), so each entry is bit-identical to the scalar wrap.
    """
    wrapped = np.fmod(angles + math.pi, TWO_PI)
    wrapped[wrapped <= 0.0] += TWO_PI
    wrapped -= math.pi
    return wrapped


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
    flow_z = np.empty((n, n_max, 3), dtype=np.float64) if noisy else None
    gyro_z = np.empty((n, n_max), dtype=np.float64) if noisy else None
    drop_u = np.empty((n, r_total, 4), dtype=np.float64) if noisy else None
    tof_z = np.empty((n, r_total, 4), dtype=np.float64) if noisy else None
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
            assert drop_u is not None and tof_z is not None
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
            flow_z[j] = draw_rows(flow_gen, FLOW, n_max)
            gyro_gen = np.random.default_rng(gyro_stream)
            bias[j] = Gyro(noise_std=config.gyro_noise_std, rng=gyro_gen).bias
            gyro_z[j] = draw_rows(gyro_gen, GYRO, n_max)[:, 0]
            drop_u[j] = draw_rows(np.random.default_rng(drop_stream), DROPOUT, r_total)
            tof_z[j] = draw_rows(np.random.default_rng(noise_stream), RANGE, r_total)

    # -- shared constants ---------------------------------------------------
    mounts = np.array(
        [normalize_angle(a) for a in BEAM_ANGLES.values()], dtype=np.float64
    )
    max_range = VL53L1X_MAX_RANGE_M
    tof_noise_std = config.tof_noise_std
    tof_dropout = config.tof_dropout_prob
    vel_noise_std = config.odometry_noise_std
    gyro_noise_std = config.gyro_noise_std
    controller = VelocityController()
    vmax = controller.max_speed
    wmax = controller.max_yaw_rate
    alpha_v = 1.0 - math.exp(-dt / config.velocity_tau)
    alpha_w = 1.0 - math.exp(-dt / config.yaw_tau)
    margin = CRAZYFLIE_RADIUS_M

    # -- structure-of-arrays state ------------------------------------------
    x = np.full(n, start.x, dtype=np.float64)
    y = np.full(n, start.y, dtype=np.float64)
    h = np.full(n, heading0, dtype=np.float64)
    vx = np.zeros(n, dtype=np.float64)
    vy = np.zeros(n, dtype=np.float64)
    wz = np.zeros(n, dtype=np.float64)
    est_x = np.full(n, start.x, dtype=np.float64)
    est_y = np.full(n, start.y, dtype=np.float64)
    est_h = np.full(n, heading0, dtype=np.float64)
    est_vx = np.zeros(n, dtype=np.float64)
    est_vy = np.zeros(n, dtype=np.float64)
    est_wz = np.zeros(n, dtype=np.float64)
    sp_f = np.zeros(n, dtype=np.float64)
    sp_s = np.zeros(n, dtype=np.float64)
    sp_w = np.zeros(n, dtype=np.float64)
    # Column k holds every lane's position after k ticks.
    hist_x = np.empty((n, n_max + 1), dtype=np.float64)
    hist_y = np.empty((n, n_max + 1), dtype=np.float64)
    hist_x[:, 0] = x
    hist_y[:, 0] = y
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
        """Mission ``i``'s record, from its row of the position history."""
        spec = specs[i]
        n_i = n_steps[i]
        xs = hist_x[i, : n_i + 1]
        ys = hist_y[i, : n_i + 1]
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
        # -- Multi-ranger refresh (shared 20 Hz schedule) -------------------
        if refresh[k]:
            beams = _normalize_angles(h[act][:, None] + mounts[None, :])
            dirx = np.cos(beams)
            diry = np.sin(beams)
            hits = caster.cast_fleet(
                np.repeat(x[act], 4),
                np.repeat(y[act], 4),
                dirx.ravel(),
                diry.ravel(),
                max_range,
            ).reshape(len(active), 4)
            true_d = np.minimum(hits, max_range)
            if noisy:
                assert drop_u is not None and tof_z is not None
                vals = np.where(
                    drop_u[act, r, :] < tof_dropout,
                    max_range,
                    np.clip(
                        true_d + tof_noise_std * tof_z[act, r, :],
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
        ex, ey, eh = est_x.tolist(), est_y.tolist(), est_h.tolist()
        evx, evy, ewz = est_vx.tolist(), est_vy.tolist(), est_wz.tolist()
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
        sp_f[act] = fs
        sp_s[act] = ss
        sp_w[act] = ws

        # -- dynamics (vectorized; scalar only on blocked lanes) ------------
        vx_n = vx + alpha_v * (sp_f - vx)
        vy_n = vy + alpha_v * (sp_s - vy)
        wz_n = wz + alpha_w * (sp_w - wz)
        h_n = _normalize_angles(h + wz_n * dt)
        ch = np.cos(h_n)
        sh = np.sin(h_n)
        dx_a = (ch * vx_n - sh * vy_n) * dt
        dy_a = (sh * vx_n + ch * vy_n) * dt
        tx = x + dx_a
        ty = y + dy_a
        free = room.is_free_many(tx, ty, margin)
        x_n = np.where(free, tx, x)
        y_n = np.where(free, ty, y)
        if not free.all():
            for i in np.flatnonzero(~free).tolist():
                if n_steps[i] <= k:
                    # Masked-out lane drifting after its mission ended:
                    # park it; its record is already snapshotted.
                    vx_n[i] = 0.0
                    vy_n[i] = 0.0
                    continue
                sx = float(x[i])
                sy = float(y[i])
                new_pos = Vec2(sx + float(dx_a[i]), sy)
                if not room.is_free(new_pos, margin):
                    new_pos = Vec2(sx, sy + float(dy_a[i]))
                    if not room.is_free(new_pos, margin):
                        new_pos = Vec2(sx, sy)
                collisions[i] += 1
                actual_x = (new_pos.x - sx) / dt
                actual_y = (new_pos.y - sy) / dt
                c_ = float(ch[i])
                s_c = float(sh[i])
                vx_n[i] = c_ * actual_x + s_c * actual_y
                vy_n[i] = -s_c * actual_x + c_ * actual_y
                x_n[i] = new_pos.x
                y_n[i] = new_pos.y
        hist_x[:, k + 1] = x_n
        hist_y[:, k + 1] = y_n

        # -- estimator (vectorized flow/gyro fusion) ------------------------
        if noisy:
            assert flow_z is not None and gyro_z is not None
            meas_vx = scale * vx_n + vel_noise_std * flow_z[:, k, 0]
            meas_vy = scale * vy_n + vel_noise_std * flow_z[:, k, 1]
            gyro_meas = wz_n + bias + gyro_noise_std * gyro_z[:, k]
        else:
            meas_vx = vx_n
            meas_vy = vy_n
            gyro_meas = wz_n
        est_h = _normalize_angles(est_h + gyro_meas * dt)
        ech = np.cos(est_h)
        esh = np.sin(est_h)
        est_x = est_x + (ech * meas_vx - esh * meas_vy) * dt
        est_y = est_y + (esh * meas_vx + ech * meas_vy) * dt
        est_vx = meas_vx
        est_vy = meas_vy
        est_wz = gyro_meas

        # -- sparse camera frames -------------------------------------------
        if kind == "search":
            t_post = times_post[k]
            for i in active:
                if t_post + 1e-9 >= frames[i] * frame_periods[i]:
                    frames[i] += 1
                    pos = Vec2(float(x_n[i]), float(y_n[i]))
                    heading = float(h_n[i])
                    state = DroneState(
                        pos, heading, float(vx_n[i]), float(vy_n[i]), float(wz_n[i]), t_post
                    )
                    observations = camera.observe(caster, pos, heading, objects)
                    for obs in channels[i].detect(observations, state, det_rngs[i]):
                        name = obs.obj.name
                        if name not in first_det[i]:
                            first_det[i][name] = DetectionEvent(
                                object_name=name,
                                object_class=obs.obj.object_class.value,
                                time_s=t_post,
                                distance_m=obs.distance_m,
                            )

        x, y, h = x_n, y_n, h_n
        vx, vy, wz = vx_n, vy_n, wz_n

        # -- early-finish masking -------------------------------------------
        done_now = finishing.get(k)
        if done_now:
            for i in done_now:
                records[i] = _snapshot(i)
                sp_f[i] = 0.0
                sp_s[i] = 0.0
                sp_w[i] = 0.0
            active = [i for i in active if n_steps[i] > k + 1]
            if not active:
                break
            act = np.array(active, dtype=np.intp)

    out = []
    for i, record in enumerate(records):
        assert record is not None, f"mission {i} never finished"
        out.append(record)
    return out
