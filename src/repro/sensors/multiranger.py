"""The Bitcraze Multi-ranger deck: five VL53L1x sensors.

The deck mounts sensors front / back / left / right / up. The exploration
policies of the paper use only the front, left and right beams
(Sec. III-C); the up beam always saturates in our 2-D world and is kept
for interface completeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.geometry.raycast import RayCaster
from repro.geometry.vec import Vec2, normalize_angle
from repro.sensors.tof import ToFSensor, VL53L1X_MAX_RANGE_M, VL53L1X_RATE_HZ


@dataclass(frozen=True)
class RangerReading:
    """One synchronized reading of the whole deck, in metres."""

    front: float
    back: float
    left: float
    right: float
    up: float

    def as_dict(self) -> Dict[str, float]:
        """Mapping from beam name to distance."""
        return {
            "front": self.front,
            "back": self.back,
            "left": self.left,
            "right": self.right,
            "up": self.up,
        }

    def min_horizontal(self) -> float:
        """Closest obstacle over the four horizontal beams."""
        return min(self.front, self.back, self.left, self.right)


#: Beam directions in the body frame (radians from the heading).
BEAM_ANGLES = {
    "front": 0.0,
    "left": math.pi / 2.0,
    "back": math.pi,
    "right": -math.pi / 2.0,
}


class MultiRangerDeck:
    """Five-beam ToF deck sampled at 20 Hz.

    Args:
        noise_std: per-beam gaussian range noise (metres).
        dropout_prob: per-beam dropout probability.
        rng: dropout-draw RNG; ``None`` gives noise-free beams.
        noise_rng: gaussian range-noise RNG; defaults to ``rng``. The
            drone assembly passes two independently spawned streams so a
            fleet stepper can pre-draw a whole mission's dropout block
            (``random((refreshes, 4))``) and noise block
            (``standard_normal((refreshes, 4))``) up front and still
            match the serial deck bit-for-bit.
        max_range: beam saturation distance.

    Noise discipline (part of the fleet bit-identity contract): every
    refresh consumes one ``random(4)`` block from ``rng`` and one
    ``standard_normal(4)`` block from ``noise_rng`` -- always both,
    always whole blocks -- then applies them per beam in mount order
    (front, left, back, right). Drawing unconditionally keeps each
    stream's position a pure function of the refresh count, never of
    what the beams saw, which is what lets pre-generated blocks line up
    for any trajectory.
    """

    def __init__(
        self,
        noise_std: float = 0.01,
        dropout_prob: float = 0.002,
        rng: Optional[np.random.Generator] = None,
        noise_rng: Optional[np.random.Generator] = None,
        max_range: float = VL53L1X_MAX_RANGE_M,
    ):
        self.rate_hz = VL53L1X_RATE_HZ
        self.max_range = max_range
        self.noise_std = noise_std
        self.dropout_prob = dropout_prob
        self._rng = rng
        self._noise_rng = noise_rng if noise_rng is not None else rng
        # The deck applies noise itself (see the class docstring), so the
        # per-beam sensors are noise-free geometry probes.
        self._sensors = {
            name: ToFSensor(
                angle,
                max_range=max_range,
                noise_std=noise_std,
                dropout_prob=dropout_prob,
                rng=None,
            )
            for name, angle in BEAM_ANGLES.items()
        }
        # Normalized mount angles in beam order, so the batched read uses
        # exactly the per-sensor beam headings.
        self._mount_angles = tuple(s.mount_angle for s in self._sensors.values())

    def _apply_noise(self, hits: "list[float]") -> "list[float]":
        """Dropout + gaussian noise over one refresh, in mount order."""
        max_range = self.max_range
        rng = self._rng
        if rng is None:
            return [d if d < max_range else max_range for d in hits]
        u = rng.random(4)
        z = self._noise_rng.standard_normal(4)
        noise_std = self.noise_std
        dropout = self.dropout_prob
        out = []
        for k, true_dist in enumerate(hits):
            if true_dist > max_range:
                true_dist = max_range
            if u[k] < dropout:
                out.append(max_range)
                continue
            noisy = true_dist + noise_std * float(z[k])
            if noisy < 0.0:
                noisy = 0.0
            elif noisy > max_range:
                noisy = max_range
            out.append(noisy)
        return out

    def read(self, caster: RayCaster, position: Vec2, heading: float) -> RangerReading:
        """Sample all beams at the given pose (per-beam reference path).

        The up beam always saturates in the planar world model. This is
        the one-cast-per-beam implementation, kept as the reference
        :meth:`read_batched` is pinned against; both consume the noise
        streams identically (see the class docstring).
        """
        hits = [
            sensor.measure(caster, position, heading)
            for sensor in self._sensors.values()
        ]
        front, left, back, right = self._apply_noise(hits)
        return RangerReading(
            front=front, back=back, left=left, right=right, up=self.max_range
        )

    def read_batched(
        self, caster: RayCaster, position: Vec2, heading: float
    ) -> RangerReading:
        """Sample all beams through one batched cast.

        Bit-identical to :meth:`read`: the four horizontal beams go
        through a single ``hit_distances`` kernel call (whose entries equal
        the per-beam ``cast`` results exactly) and the noise blocks are
        drawn and applied exactly as in the reference path.
        """
        max_range = self.max_range
        cos, sin = math.cos, math.sin
        beams = [normalize_angle(heading + a) for a in self._mount_angles]
        hits = caster.hit_distances(
            position, [cos(b) for b in beams], [sin(b) for b in beams], max_range
        )
        front, left, back, right = self._apply_noise(
            [float(d) for d in hits]
        )
        return RangerReading(
            front=front, back=back, left=left, right=right, up=max_range
        )
