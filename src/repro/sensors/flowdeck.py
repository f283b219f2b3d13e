"""Flow-deck odometry model.

The real Flow deck measures ground-relative optical flow and height; the
Crazyflie fuses it into a velocity estimate. We model the end product: a
body-frame velocity measurement with multiplicative scale error and
additive noise, which the state estimator integrates into a drifting
position estimate -- exactly the kind of odometry the paper's policies
have to live with (none of them relies on absolute position).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SensorError


class OdometrySample:
    """One odometry measurement in the body frame.

    Attributes:
        vx: forward velocity estimate, m/s.
        vy: left velocity estimate, m/s.
        height: height-over-ground estimate, m.

    A ``__slots__`` value class: one is created per control tick.
    """

    __slots__ = ("vx", "vy", "height")

    def __init__(self, vx: float, vy: float, height: float):
        self.vx = vx
        self.vy = vy
        self.height = height

    def __eq__(self, other) -> bool:
        if other.__class__ is OdometrySample:
            return (
                self.vx == other.vx
                and self.vy == other.vy
                and self.height == other.height
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vx, self.vy, self.height))

    def __repr__(self) -> str:
        return (
            f"OdometrySample(vx={self.vx!r}, vy={self.vy!r}, "
            f"height={self.height!r})"
        )


class FlowDeck:
    """Optical-flow velocity sensor.

    Args:
        velocity_noise_std: additive 1-sigma noise on each velocity axis.
        scale_error: multiplicative bias (e.g. 0.02 -> velocities read 2%
            long); drawn once per deck instance to mimic a per-unit
            calibration error.
        height_noise_std: 1-sigma noise on the height measurement.
        rng: noise generator; ``None`` disables all noise.
    """

    def __init__(
        self,
        velocity_noise_std: float = 0.02,
        scale_error: float = 0.01,
        height_noise_std: float = 0.005,
        rng: Optional[np.random.Generator] = None,
    ):
        if velocity_noise_std < 0.0 or height_noise_std < 0.0:
            raise SensorError("negative noise std")
        self._rng = rng
        self.velocity_noise_std = velocity_noise_std
        self.height_noise_std = height_noise_std
        if rng is None:
            self.scale = 1.0
        else:
            self.scale = 1.0 + rng.normal(0.0, scale_error)

    def read(self, vx_body: float, vy_body: float, height: float) -> OdometrySample:
        """Measure the true body-frame velocity and height.

        Args:
            vx_body: true forward velocity, m/s.
            vy_body: true left velocity, m/s.
            height: true height over ground, m.
        """
        if self._rng is None:
            return OdometrySample(vx_body, vy_body, height)
        return OdometrySample(
            vx=self.scale * vx_body
            + self._rng.normal(0.0, self.velocity_noise_std),
            vy=self.scale * vy_body
            + self._rng.normal(0.0, self.velocity_noise_std),
            height=height + self._rng.normal(0.0, self.height_noise_std),
        )
