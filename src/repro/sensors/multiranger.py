"""The Bitcraze Multi-ranger deck: five VL53L1x sensors.

The deck mounts sensors front / back / left / right / up. The exploration
policies of the paper use only the front, left and right beams
(Sec. III-C); the up beam always saturates in our 2-D world and is kept
for interface completeness.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import SensorError
from repro.geometry.raycast import RayCaster
from repro.geometry.vec import Vec2, normalize_angle
from repro.sensors.tape import DROPOUT, RANGE, REFRESH_BLOCK, tape
from repro.sensors.tof import ToFSensor, VL53L1X_MAX_RANGE_M, VL53L1X_RATE_HZ


class RangerReading:
    """One synchronized reading of the whole deck, in metres.

    A ``__slots__`` value class (see
    :class:`~repro.drone.dynamics.DroneState` for why): the deck makes
    one per refresh, a fleet block one per mission per refresh.
    """

    __slots__ = ("front", "back", "left", "right", "up")

    def __init__(self, front: float, back: float, left: float, right: float, up: float):
        self.front = front
        self.back = back
        self.left = left
        self.right = right
        self.up = up

    def __eq__(self, other) -> bool:
        if other.__class__ is RangerReading:
            return (
                self.front == other.front
                and self.back == other.back
                and self.left == other.left
                and self.right == other.right
                and self.up == other.up
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.front, self.back, self.left, self.right, self.up))

    def __repr__(self) -> str:
        return (
            f"RangerReading(front={self.front!r}, back={self.back!r}, "
            f"left={self.left!r}, right={self.right!r}, up={self.up!r})"
        )

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
        noise_rng: gaussian range-noise RNG, required with ``rng``. The
            drone assembly passes two independently spawned streams so a
            fleet stepper can pre-draw a whole mission's dropout block
            and noise block (:func:`~repro.sensors.tape.draw_rows`) up
            front and still match the serial deck bit-for-bit.
        max_range: beam saturation distance.

    Noise discipline (part of the fleet bit-identity contract): every
    refresh consumes one :data:`~repro.sensors.tape.DROPOUT` row
    (``random(4)``) from ``rng`` and one
    :data:`~repro.sensors.tape.RANGE` row (``standard_normal(4)``) from
    ``noise_rng`` -- always both, always whole rows -- then applies them
    per beam in mount order (front, left, back, right). Drawing
    unconditionally keeps each stream's position a pure function of the
    refresh count, never of what the beams saw, which is what lets
    pre-generated blocks line up for any trajectory; the deck itself
    reads both streams from tapes drawn
    :data:`~repro.sensors.tape.REFRESH_BLOCK` rows at a time.

    Raises:
        SensorError: when ``rng`` comes without its own ``noise_rng``.
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
        self._dropout: Optional[Iterator[List[float]]] = None
        self._noise: Optional[Iterator[List[float]]] = None
        if rng is not None:
            if noise_rng is None or noise_rng is rng:
                raise SensorError("a noisy Multi-ranger deck needs its own noise_rng")
            self._dropout = tape(rng, DROPOUT, REFRESH_BLOCK)
            self._noise = tape(noise_rng, RANGE, REFRESH_BLOCK)
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
        dropout_tape = self._dropout
        noise_tape = self._noise
        if dropout_tape is None or noise_tape is None:
            return [d if d < max_range else max_range for d in hits]
        u = next(dropout_tape)
        z = next(noise_tape)
        noise_std = self.noise_std
        dropout = self.dropout_prob
        out = []
        for k, true_dist in enumerate(hits):
            if true_dist > max_range:
                true_dist = max_range
            if u[k] < dropout:
                out.append(max_range)
                continue
            noisy = true_dist + noise_std * z[k]
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
