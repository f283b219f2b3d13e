"""Assembly of the full simulated Crazyflie 2.1 platform.

Combines the kinematic model, inner-loop controller, state estimator and
the three expansion decks of the paper's prototype (Flow deck,
Multi-ranger deck, AI-deck camera). The control loop runs at 50 Hz (the
rate of the paper's motion-capture tracking and a typical firmware
commander rate); the ToF deck refreshes at its native 20 Hz, so the
policies see a new ranger reading roughly every 2.5 control ticks, just
like on the real platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.drone.controller import SetPoint, VelocityController
from repro.drone.dynamics import CRAZYFLIE_RADIUS_M, DroneDynamics, DroneState
from repro.drone.state_estimator import EstimatedState, StateEstimator
from repro.geometry.vec import Vec2
from repro.sensors.camera import HimaxCamera
from repro.sensors.flowdeck import FlowDeck
from repro.sensors.imu import Gyro
from repro.sensors.multiranger import MultiRangerDeck, RangerReading
from repro.seeding import SeedLike, spawn_streams
from repro.world.room import Room

#: Control-loop rate of the simulated platform, Hz.
CONTROL_RATE_HZ = 50.0


@dataclass
class CrazyflieConfig:
    """Configuration of the simulated platform.

    Attributes:
        control_rate_hz: rate of the outer control loop.
        tof_noise_std: Multi-ranger per-beam range noise, m.
        tof_dropout_prob: Multi-ranger per-beam dropout probability.
        odometry_noise_std: Flow-deck velocity noise, m/s.
        gyro_noise_std: gyro white noise, rad/s.
        noisy: master switch; ``False`` makes every sensor ideal.
        velocity_tau: velocity response time constant, s.
        yaw_tau: yaw-rate response time constant, s.
    """

    control_rate_hz: float = CONTROL_RATE_HZ
    tof_noise_std: float = 0.01
    tof_dropout_prob: float = 0.002
    odometry_noise_std: float = 0.02
    gyro_noise_std: float = 0.005
    noisy: bool = True
    velocity_tau: float = 0.25
    yaw_tau: float = 0.10


class Crazyflie:
    """The simulated nano-drone with all decks mounted.

    Args:
        room: the world to fly in.
        start: initial position; defaults to 1 m from the south-west corner.
        heading: initial heading, rad.
        config: platform configuration.
        seed: RNG seed for the sensor noise sources (``None``, an int,
            or a :class:`~numpy.random.SeedSequence` stream). Four child
            streams are spawned from it in a fixed order -- flow deck,
            gyro, ranger dropout, ranger gaussian noise -- so each
            sensor owns an independent stream whose position depends
            only on the tick / refresh count. That independence is what
            lets the fleet stepper (:mod:`repro.sim.fleet`) pre-draw
            every mission's noise as one block per sensor and still
            reproduce a serial mission bit-for-bit.
    """

    def __init__(
        self,
        room: Room,
        start: Optional[Vec2] = None,
        heading: float = 0.0,
        config: Optional[CrazyflieConfig] = None,
        seed: SeedLike = None,
    ):
        self.room = room
        self.config = config or CrazyflieConfig()
        if self.config.noisy:
            flow_stream, gyro_stream, drop_stream, noise_stream = spawn_streams(
                seed, 4
            )
            self._flow_rng: Optional[np.random.Generator] = np.random.default_rng(
                flow_stream
            )
            self._gyro_rng: Optional[np.random.Generator] = np.random.default_rng(
                gyro_stream
            )
            ranger_rng: Optional[np.random.Generator] = np.random.default_rng(
                drop_stream
            )
            ranger_noise_rng: Optional[np.random.Generator] = np.random.default_rng(
                noise_stream
            )
        else:
            self._flow_rng = None
            self._gyro_rng = None
            ranger_rng = None
            ranger_noise_rng = None
        if start is None:
            start = Vec2(1.0, 1.0)
        self.dynamics = DroneDynamics(
            room=room,
            state=DroneState(position=start, heading=heading),
            velocity_tau=self.config.velocity_tau,
            yaw_tau=self.config.yaw_tau,
        )
        self.controller = VelocityController()
        self.estimator = StateEstimator(initial_position=start, initial_heading=heading)
        self.multiranger = MultiRangerDeck(
            noise_std=self.config.tof_noise_std if ranger_rng is not None else 0.0,
            dropout_prob=(
                self.config.tof_dropout_prob if ranger_rng is not None else 0.0
            ),
            rng=ranger_rng,
            noise_rng=ranger_noise_rng,
        )
        self.flowdeck = FlowDeck(
            velocity_noise_std=self.config.odometry_noise_std, rng=self._flow_rng
        )
        self.gyro = Gyro(noise_std=self.config.gyro_noise_std, rng=self._gyro_rng)
        self.camera = HimaxCamera()
        self._dt = 1.0 / self.config.control_rate_hz
        self._tof_period = 1.0 / self.multiranger.rate_hz
        self._last_tof_time = -float("inf")
        self._last_reading: Optional[RangerReading] = None

    @property
    def dt(self) -> float:
        """Control-loop period, s."""
        return self._dt

    @property
    def state(self) -> DroneState:
        """Ground-truth state (what the mocap system would report)."""
        return self.dynamics.state

    @property
    def estimated_state(self) -> EstimatedState:
        """Onboard state estimate (what the policies can use)."""
        return self.estimator.estimate

    @property
    def radius(self) -> float:
        """Collision radius of the airframe."""
        return CRAZYFLIE_RADIUS_M

    def read_ranger(self) -> RangerReading:
        """Latest Multi-ranger reading, refreshed at the deck's 20 Hz.

        Between refreshes the previous reading is returned, exactly like
        polling the deck registers faster than the sensor ranging rate.
        """
        now = self.state.time
        if (
            self._last_reading is None
            or now - self._last_tof_time >= self._tof_period - 1e-9
        ):
            state = self.state
            self._last_reading = self.multiranger.read_batched(
                self.room.raycaster, state.position, state.heading
            )
            self._last_tof_time = now
        return self._last_reading

    def step(self, setpoint: SetPoint) -> DroneState:
        """Run one 50 Hz control tick under the given set-point."""
        clamped = self.controller.clamp(setpoint)
        state = self.dynamics.step(clamped, self._dt)
        flow_rng = self._flow_rng
        gyro_rng = self._gyro_rng
        if flow_rng is not None and gyro_rng is not None:
            # One pre-drawn block per sensor stream replaces the scalar
            # generator calls; each stream is consumed in the order
            # FlowDeck.read and Gyro.read draw (flow vx, vy, height;
            # then gyro), so the tick is bit-identical to them. The
            # noise application is inlined (normal(0, s) is
            # s * standard_normal() internally) and the height term is
            # never consumed by the estimator, so only its draw matters.
            zf = flow_rng.standard_normal(3).tolist()
            zg = float(gyro_rng.standard_normal())
            flow = self.flowdeck
            gyro = self.gyro
            self.estimator.update_raw(
                flow.scale * state.vx_body + flow.velocity_noise_std * zf[0],
                flow.scale * state.vy_body + flow.velocity_noise_std * zf[1],
                state.yaw_rate + gyro.bias + gyro.noise_std * zg,
                self._dt,
            )
        else:
            # Ideal sensors read the truth (FlowDeck.read and Gyro.read
            # without an rng).
            self.estimator.update_raw(
                state.vx_body, state.vy_body, state.yaw_rate, self._dt
            )
        return state
