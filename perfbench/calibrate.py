"""Host-speed calibration: time on a shared machine in reference seconds.

The benchmark runs on shared virtual machines whose speed drifts by
20-40 % over minutes as other tenants come and go. The guest sees no
steal time: its vCPU runs, only slower, so CPU time slows as wall time
does, and a rate measured in either follows the host more than the
program. So every timed region is interleaved with runs of a fixed
reference kernel, written here and never calling the program, and the
region's wall time, without the kernel's, is divided by the host's
slowdown over the region:

    slowdown = median kernel seconds in the region / REFERENCE_S

The result is the region's time in *reference seconds*: what the wall
clock would have read had the host kept the kernel's reference pace. The
median ignores kernel runs that an interrupt or a cold cache slowed. A
program change cannot move the kernel, so a faster program still reads
faster.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Optional, Tuple

import numpy as np

#: Median seconds of one :class:`Kernel` run on the reference host (700
#: runs in 40 s): a 2-vCPU KVM guest on a Xeon (Sapphire Rapids, 2.1 GHz),
#: Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 at 1 thread.
REFERENCE_S = 0.0565

#: Inside a timed region the kernel runs at the first progress call at
#: least this many seconds after its previous run ended.
EVERY_S = 0.5


class _Body:
    __slots__ = ("x", "y", "vx", "vy")

    def __init__(self, k: int) -> None:
        self.x = 0.1 * k
        self.y = 0.0
        self.vx = 0.3
        self.vy = 0.1 * (k % 3)


class Kernel:
    """The reference work: one run mixes, in roughly equal time, what the
    workloads do. An interpreter loop over small objects (the tick loops),
    building, sorting and indexing Python containers (records, job specs),
    numpy calls on tiny arrays (per-tick geometry), BLAS and dense numpy on
    mid-sized arrays (the nn layers) and a pass over a few MB (memory).
    No single part tracks every workload's slowdown; their sum averages
    out what is peculiar to each. Its inputs are fixed, so every run does
    the same work."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.tiny = rng.standard_normal(8)
        self.mat = rng.standard_normal((128, 128)) * 0.05
        self.vec = rng.standard_normal(100_000)
        self.big = rng.standard_normal(500_000)

    def __call__(self) -> float:
        bodies = [_Body(k) for k in range(32)]
        heading = 0.0
        for step in range(2500):
            for b in bodies:
                b.x += b.vx * 0.01
                b.y += b.vy * 0.01
                if b.x > 1.0 or b.x < -1.0:
                    b.vx = -b.vx
            heading = math.atan2(bodies[step % 32].y, bodies[0].x + 2.0)
        rows = [(k, k * 0.5, str(k & 255)) for k in range(20_000)]
        rows.sort(key=lambda row: -row[1])
        index = {row[0]: row for row in rows}
        v = self.tiny
        for _ in range(3500):
            v = np.minimum(np.abs(v) * 0.5 + 0.1, 2.0)
        m = self.mat
        for _ in range(60):
            m = np.tanh(self.mat @ m)
        w = self.vec
        for _ in range(80):
            w = np.maximum(w * 0.9, -1.0) + 0.01
        total = 0.0
        for _ in range(20):
            total += float(self.big.copy()[::4096].sum())
        return heading + index[7][1] + float(v.sum() + m.sum() + w.sum()) + total


class Clock:
    """Times regions in wall and reference seconds.

    ``start()`` opens a region with a kernel run, ``tick()`` (a progress
    callback) runs the kernel again when :data:`EVERY_S` has passed, and
    ``stop()`` closes the region with a last run. ``wall_s`` and ``ref_s``
    then hold the region's time without the kernel's.
    """

    def __init__(self, kernel: Optional[Callable[[], float]] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.kernel = kernel or Kernel()
        self.clock = clock
        #: Seconds of every kernel run so far.
        self.samples: list = []
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._region: list = []
        self._mark: Optional[float] = None

    def _sample(self) -> None:
        t0 = self.clock()
        self.kernel()
        t1 = self.clock()
        if self._mark is not None:
            self.wall_s += t0 - self._mark
        self.samples.append(t1 - t0)
        self._region.append(t1 - t0)
        self._mark = t1

    def start(self) -> None:
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._region = []
        self._sample()

    def tick(self, *_: object) -> None:
        if self._mark is not None and self.clock() - self._mark >= EVERY_S:
            self._sample()

    def stop(self) -> None:
        self._sample()
        self._mark = None
        self.ref_s = self.wall_s * REFERENCE_S / float(np.median(self._region))

    def slowdown(self) -> float:
        """Median kernel time over :data:`REFERENCE_S` (1.0 at the reference pace)."""
        return float(np.median(self.samples)) / REFERENCE_S if self.samples else 1.0


def timed(clock: Clock, fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` as one calibrated region of ``clock``.

    Returns ``(result, wall seconds without the kernel's)``; the region's
    reference seconds are then in ``clock.ref_s``.
    """
    clock.start()
    try:
        result = fn()
    finally:
        clock.stop()
    return result, clock.wall_s
