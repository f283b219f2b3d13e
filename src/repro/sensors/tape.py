"""Sensor noise tapes: each noisy sensor's stream, drawn in blocks.

Every noisy sensor of the drone owns one generator, spawned in a fixed
order by :class:`~repro.drone.crazyflie.Crazyflie`, and takes the same
draws each control tick or Multi-ranger refresh whatever it measured:
one *row* of its stream. :data:`FLOW`, :data:`GYRO`, :data:`DROPOUT`
and :data:`RANGE` define those rows once. :func:`draw_rows` pulls any
number of rows in one generator call, and ``k`` rows drawn at once are
the ``k`` rows drawn one at a time (a numpy generator fills an array in
order from the same stream). The fleet stepper (:mod:`repro.sim.fleet`)
draws a mission's whole tape that way; a serial flight reads it through
:func:`tape`, one block of rows at a time, as Python floats.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

#: One row of a stream: the :class:`numpy.random.Generator` method and
#: the number of values it draws.
Stream = Tuple[str, int]

#: Flow deck, per control tick: vx, vy and height noise.
FLOW: Stream = ("standard_normal", 3)
#: Gyro, per control tick: the rate noise.
GYRO: Stream = ("standard_normal", 1)
#: Multi-ranger dropout, per refresh: one uniform per beam in mount order.
DROPOUT: Stream = ("random", 4)
#: Multi-ranger range noise, per refresh: one normal per beam in mount order.
RANGE: Stream = ("standard_normal", 4)

#: Rows a serial tape draws at once: 10 s of flight at the 50 Hz control
#: rate (flow, gyro) and at the deck's nominal 20 Hz (dropout, range).
TICK_BLOCK = 500
REFRESH_BLOCK = 200


def draw_rows(gen: np.random.Generator, stream: Stream, rows: int) -> np.ndarray:
    """The next ``rows`` rows of ``stream`` from ``gen``, shaped ``(rows, width)``."""
    method, width = stream
    block: np.ndarray = getattr(gen, method)((rows, width))
    return block


def tape(gen: np.random.Generator, stream: Stream, block: int) -> Iterator[List[float]]:
    """The rows of ``stream``, each a list of Python floats, drawn ``block`` at a time.

    The tape draws ahead, so from its first row on it must be ``gen``'s
    only consumer.
    """
    while True:
        yield from draw_rows(gen, stream, block).tolist()
