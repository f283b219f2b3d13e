"""In-flight telemetry capture for recorded missions.

A :class:`FlightRecorder` rides along a mission's control loop and
accumulates the columnar telemetry that becomes a
:class:`~repro.obs.trace.MissionTrace` when the flight ends. The
mission calls it once per control tick with the objects it already has
in hand (true state, estimate, set-point, ranger reading), plus event
hooks for camera frames, detections and coverage samples. The hot path
is deliberately minimal -- :meth:`FlightRecorder.tick` appends a single
row tuple, and nothing is transposed or copied until
:meth:`FlightRecorder.finish` -- so that recording stays a few percent
of a mission's wall clock (the ``record_overhead`` section of
``benchmarks/bench_sim_core.py`` asserts the ceiling).

Phase timing uses :func:`time.perf_counter` -- wall clock, stored in
the trace's ``timings`` section only, which the replay bit-identity
contract deliberately ignores (see :mod:`repro.obs.trace`). The mission
tick loop (:func:`repro.mission.loop.fly`) wraps its bound callables --
ranger read, policy update, drone step, mocap, camera, detector -- in
:meth:`FlightRecorder.timed` when recording: one clock read per call,
laps that partition the loop's wall clock into phases. The unrecorded
loop times nothing.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

from repro.obs.trace import TICK_COLUMNS, MissionTrace


class FlightRecorder:
    """Accumulates one mission's telemetry, tick by tick.

    Args:
        kind: ``"explore"`` or ``"search"`` -- which mission family the
            trace describes.

    Example:
        >>> rec = FlightRecorder("explore")
        >>> update = rec.timed("policy", abs)
        >>> update(-2)
        2
        >>> sorted(rec.phases), rec.n_ticks
        (['policy'], 0)
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._rows: List[Tuple[float, ...]] = []
        self.frames: Dict[str, List[float]] = {"t": [], "visible": []}
        self.detections: List[List[Any]] = []
        self.coverage: Dict[str, List[float]] = {"t": [], "value": []}
        self.phases: Dict[str, float] = {}
        self._lap = [0.0]  # clock reading at the end of the latest lap

    @property
    def n_ticks(self) -> int:
        """Ticks recorded so far."""
        return len(self._rows)

    def tick(self, state, estimate, setpoint, reading, collisions: int) -> None:
        """Record one control tick.

        Args:
            state: the true :class:`~repro.drone.dynamics.DroneState`
                *after* the step.
            estimate: the drone's
                :class:`~repro.drone.state_estimator.EstimatedState` the
                policy acted on this tick.
            setpoint: the commanded
                :class:`~repro.drone.controller.SetPoint`.
            reading: the
                :class:`~repro.sensors.multiranger.RangerReading` the
                policy saw.
            collisions: cumulative collision count after the step.
        """
        pos = state.position
        est_pos = estimate.position
        self._rows.append(
            (
                state.time,
                pos.x,
                pos.y,
                state.heading,
                est_pos.x,
                est_pos.y,
                estimate.heading,
                setpoint.forward,
                setpoint.side,
                setpoint.yaw_rate,
                reading.front,
                reading.back,
                reading.left,
                reading.right,
                collisions,
            )
        )

    def coverage_sample(self, t: float, value: float) -> None:
        """Record one point of the coverage-over-time series."""
        self.coverage["t"].append(t)
        self.coverage["value"].append(value)

    def frame(self, t: float, visible: int) -> None:
        """Record one camera frame event (time, objects in view)."""
        self.frames["t"].append(t)
        self.frames["visible"].append(visible)

    def detection(
        self, name: str, object_class: str, t: float, distance_m: float
    ) -> None:
        """Record one first-detection event."""
        self.detections.append([name, object_class, t, distance_m])

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped as a lap of phase ``name``.

        Every wrapped call reads the clock once, when ``fn`` returns, and
        adds the time since the previous lap (or since the latest
        ``timed`` call, for the first lap) to its phase. The phases
        therefore partition the loop's wall clock: the loop's own work
        between two wrapped calls counts toward the second.
        """
        phases = self.phases
        phases.setdefault(name, 0.0)
        clock = time.perf_counter
        lap = self._lap
        lap[0] = clock()

        def timed_call(*args: Any) -> Any:
            result = fn(*args)
            now = clock()
            phases[name] += now - lap[0]
            lap[0] = now
            return result

        return timed_call

    def finish(self, final: Dict[str, Any]) -> MissionTrace:
        """Seal the recording into a :class:`MissionTrace`.

        Transposes the accumulated row tuples into the trace's columnar
        layout -- the one deferred O(ticks) pass of the recorder.

        Args:
            final: scalar summary of the flight (what the mission's
                result record reports).
        """
        if self._rows:
            transposed = list(zip(*self._rows))
            columns = {
                name: list(values)
                for name, values in zip(TICK_COLUMNS, transposed)
            }
        else:
            columns = {name: [] for name in TICK_COLUMNS}
        return MissionTrace(
            kind=self.kind,
            columns=columns,
            frames=self.frames,
            detections=self.detections,
            coverage=self.coverage,
            final=final,
            timings={"ticks": self.n_ticks, "phases": dict(self.phases)},
        )
