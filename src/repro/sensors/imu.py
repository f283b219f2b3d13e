"""Minimal IMU model: a yaw-rate gyro with bias and noise.

The exploration policies command yaw rates, and the state estimator
integrates the gyro to track heading, so the gyro is the only IMU channel
the 2-D simulation needs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SensorError


class Gyro:
    """Yaw-rate gyro with constant bias and white noise.

    Args:
        noise_std: 1-sigma white noise on the rate, rad/s.
        bias_std: 1-sigma of the constant per-unit bias, rad/s.
        rng: noise generator; ``None`` disables noise and bias.
    """

    def __init__(
        self,
        noise_std: float = 0.005,
        bias_std: float = 0.002,
        rng: Optional[np.random.Generator] = None,
    ):
        if noise_std < 0.0 or bias_std < 0.0:
            raise SensorError("negative gyro noise")
        self._rng = rng
        self.noise_std = noise_std
        self.bias = 0.0 if rng is None else float(rng.normal(0.0, bias_std))

    def read(self, true_yaw_rate: float) -> float:
        """Measure the true yaw rate (rad/s)."""
        if self._rng is None:
            return true_yaw_rate
        return true_yaw_rate + self.bias + self._rng.normal(0.0, self.noise_std)
