"""Coverage computed from the recorded trajectory, after the flight.

``OccupancyGrid.record_many`` folds a whole trace at once: ``np.add.at``
accumulates occupancy time in sample order, ``np.unique`` finds the first
visits, and a ``cumsum`` of reachable first visits gives the coverage
after every sample. :class:`ReferenceGrid` below is the per-sample loop
it replaced, over flat Python lists; every number the two leave behind
must be bit-identical, whatever the trace and however it is split into
folds. The tick loops only record the trajectory now, so the Fig. 3
heatmap job is pinned to its output before the change, and a flight's
``samples`` list is built only when read.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.drone.dynamics import DroneState
from repro.errors import WorldError
from repro.exec.jobspec import canonical_json
from repro.experiments import jobs
from repro.geometry.vec import Vec2
from repro.mapping import mocap
from repro.mapping.mocap import MotionCaptureTracker
from repro.mapping.occupancy import OccupancyGrid
from repro.mission.closed_loop import ClosedLoopMission
from repro.mission.detector_model import CalibratedDetectorModel
from repro.mission.explorer import ExplorationMission
from repro.policies import POLICY_NAMES, PolicyConfig, make_policy
from repro.sim import Campaign, get_scenario, run_campaign
from repro.world.freespace import reachable_cell_mask
from repro.world.room import Room


class ReferenceGrid:
    """The per-sample occupancy accounting ``record_many`` replaced."""

    def __init__(self, room, cell_size=0.5, start=None):
        self.room = room
        self.cell_size = cell_size
        self.nx = int(math.ceil(room.width / cell_size))
        self.ny = int(math.ceil(room.length / cell_size))
        self.time = [0.0] * (self.nx * self.ny)
        self.visited = [False] * (self.nx * self.ny)
        self.visited_count = 0
        self.visited_reachable_count = 0
        self.out_of_room_time = 0.0
        self.out_of_room_count = 0
        if start is None:
            self.reachable = None
            self.reachable_cells = self.nx * self.ny
        else:
            mask = reachable_cell_mask(room, start, cell_size, (self.ny, self.nx))
            self.reachable = mask.ravel().tolist()
            self.reachable_cells = int(mask.sum())

    def record(self, x, y, dt):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise WorldError(f"non-finite position ({x}, {y})")
        if not (0.0 <= x <= self.room.width and 0.0 <= y <= self.room.length):
            self.out_of_room_time += dt
            self.out_of_room_count += 1
            return
        ix = min(self.nx - 1, max(0, int(x / self.cell_size)))
        iy = min(self.ny - 1, max(0, int(y / self.cell_size)))
        idx = iy * self.nx + ix
        self.time[idx] += dt
        if not self.visited[idx]:
            self.visited[idx] = True
            self.visited_count += 1
            if self.reachable is None or self.reachable[idx]:
                self.visited_reachable_count += 1

    def coverage(self):
        return self.visited_reachable_count / self.reachable_cells


def _bits(values):
    """The exact bit patterns of a float sequence (``-0.0 != 0.0``)."""
    return [struct.pack("<d", v) for v in values]


#: ``(room, start)`` pairs: the paper room with every cell reachable, a
#: room whose size the cell pitch does not divide, and an obstacle world
#: with unreachable cells.
WORLDS = {
    "paper-room": (get_scenario("paper-room").build_room(), Vec2(1.0, 1.0)),
    "uneven": (Room(2.3, 1.7), None),
    "dense-depot": (
        get_scenario("dense-depot").build_room(),
        get_scenario("dense-depot").start_position(),
    ),
}


@st.composite
def traces(draw):
    """A world and a trace mixing every kind of position a grid can see."""
    name = draw(st.sampled_from(sorted(WORLDS)))
    room, _start = WORLDS[name]
    w, l = room.width, room.length
    edges_x = [k * 0.5 for k in range(int(w / 0.5) + 1)] + [w]
    edges_y = [k * 0.5 for k in range(int(l / 0.5) + 1)] + [l]
    revisits = [(0.25, 0.25), (w / 2, l / 2), (w, l), (-0.0, 0.0)]
    point = st.one_of(
        st.tuples(st.floats(0.0, w), st.floats(0.0, l)),  # inside
        st.tuples(st.sampled_from([0.0, w]), st.floats(0.0, l)),  # on a wall
        st.tuples(st.floats(0.0, w), st.sampled_from([0.0, l])),
        st.tuples(st.sampled_from(edges_x), st.sampled_from(edges_y)),  # cell edges
        st.tuples(st.floats(-3.0, -1e-300), st.floats(-1.0, l + 1.0)),  # outside
        st.tuples(st.floats(w + 1e-9, w + 3.0), st.floats(0.0, l)),
        st.tuples(st.floats(0.0, w), st.floats(l * (1 + 1e-12), 1e300)),
        st.sampled_from(revisits),
    )
    dt = st.sampled_from([0.0, 0.02, 1.0 / 3.0, 0.1])
    samples = draw(st.lists(st.tuples(point, dt), max_size=60))
    if samples and draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        at = draw(st.integers(0, len(samples) - 1))
        (x, y), dt_bad = samples[at]
        samples[at] = ((bad, y) if draw(st.booleans()) else (x, bad), dt_bad)
    cuts = sorted(draw(st.lists(st.integers(0, len(samples)), max_size=4)))
    return name, samples, cuts


class TestRecordManyEqualsPerSample:
    @given(traces())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_the_per_sample_oracle(self, trace):
        name, samples, cuts = trace
        room, start = WORLDS[name]
        reference = ReferenceGrid(room, start=start)
        grid = OccupancyGrid(room, start=start)
        expected, expected_error = [], None
        for (x, y), dt in samples:
            try:
                reference.record(x, y, dt)
            except WorldError as exc:
                expected_error = str(exc)
                break
            expected.append(reference.coverage())
        got, got_error = [], None
        for lo, hi in zip([0] + cuts, cuts + [len(samples)]):
            fold = samples[lo:hi]
            try:
                got.extend(
                    grid.record_many(
                        [p[0] for p, _ in fold], [p[1] for p, _ in fold], [d for _, d in fold]
                    ).tolist()
                )
            except WorldError as exc:
                # The fold raised: no coverage for it, but the samples
                # before the bad one are accounted, as the oracle did.
                got_error = str(exc)
                expected = expected[:lo]
                break
        assert got_error == expected_error
        assert _bits(got) == _bits(expected)
        assert _bits(grid.occupancy_time.ravel().tolist()) == _bits(reference.time)
        assert grid.visited_mask.ravel().tolist() == reference.visited
        assert _bits([grid.out_of_room_time]) == _bits([reference.out_of_room_time])
        assert grid.out_of_room_count == reference.out_of_room_count
        assert grid.visited_count() == reference.visited_count
        assert grid.visited_reachable_count() == reference.visited_reachable_count
        assert grid.coverage() == reference.coverage()

    def test_record_is_the_one_sample_case(self):
        room, start = WORLDS["dense-depot"]
        grid = OccupancyGrid(room, start=start)
        reference = ReferenceGrid(room, start=start)
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-0.5, 8.0, size=(300, 2)).tolist():
            grid.record(Vec2(x, y), 0.02)
            reference.record(x, y, 0.02)
            assert grid.coverage() == reference.coverage()
        assert grid.occupancy_time.ravel().tolist() == reference.time
        assert grid.out_of_room_count == reference.out_of_room_count > 0

    def test_non_finite_sample_raises_after_the_samples_before_it(self):
        grid = OccupancyGrid(Room(2.0, 2.0))
        with pytest.raises(WorldError, match=r"non-finite position \(1\.0, nan\)"):
            grid.record_many([0.25, 1.0, 1.75], [0.25, math.nan, 1.75], [0.5, 0.5, 0.5])
        assert grid.visited_count() == 1
        assert grid.occupancy_time[0, 0] == 0.5


class TestTrackerRecordsOnly:
    def test_observe_appends_and_the_first_query_folds(self, monkeypatch):
        folds = []
        record_many = OccupancyGrid.record_many

        def counting(self, xs, ys, dts):
            folds.append(len(xs))
            return record_many(self, xs, ys, dts)

        monkeypatch.setattr(OccupancyGrid, "record_many", counting)
        room = get_scenario("paper-room").build_room()
        tracker = MotionCaptureTracker(room, start=Vec2(1.0, 1.0))
        reference = ReferenceGrid(room, start=Vec2(1.0, 1.0))
        expected = []
        for i in range(120):
            state = DroneState(Vec2(1.0 + 0.03 * i, 1.0 + 0.01 * i), 0.0, time=0.02 * (i + 1))
            assert tracker.observe(state)
            reference.record(state.position.x, state.position.y, 0.02 if i else 0.0)
            expected.append(reference.coverage())
            if i == 59:
                assert folds == []
                assert tracker.coverage() == reference.coverage()
                assert folds == [60]
        assert tracker.series().coverage.tolist() == expected
        assert folds == [60, 60]
        assert tracker.grid.occupancy_time.ravel().tolist() == reference.time
        assert folds == [60, 60]


#: sha256 of the canonical JSON of ``fig3_job(policy, 0.5, 180.0, 5).run()``,
#: derived before coverage moved out of the tick loop.
EXPLORE_POLICY_SHA256 = {
    "pseudo-random": "325a4875c351dac21f6845e675edd74c7904eccce18842f75e08fa775d9bdbd0",
    "wall-following": "9df09bdacff72fefa0c2a9bacfbb8ee7bae321d48ee7b2447b24ee2213f7ecb4",
    "spiral": "ffaa477f1a9bf6b272cd3fdd7692f0276f640789875e064020175b50a2a4528a",
    "rotate-and-measure": "a5fafb4ed216edd074b7d0ab0730859e8508e6b184256cdd7270c7b527975e9a",
}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_explore_policy_payload_unchanged(policy):
    """Fig. 3's heatmap job ships occupancy time, which no mission pin covers."""
    payload = jobs.fig3_job(policy, 0.5, 180.0, 5).run()
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    assert digest == EXPLORE_POLICY_SHA256[policy]


#: ``(len, sha256 of repr of (time, x, y, heading) rows)`` of two flights'
#: samples, derived before the list was built on read.
EXPLORE_SAMPLES = (1500, "daa14ff59810dc88690b927ff89727d50fe303ea94b29dbed77d0af3c63e538f")
SEARCH_SAMPLES = (1000, "8b914b5ea268accd4ee785b4297f10aca0b119d99386e7c459bb1ef49233f425")


def _samples_digest(samples):
    rows = [(s.time, s.position.x, s.position.y, s.heading) for s in samples]
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()


class TestSamplesBuiltOnRead:
    def test_campaign_flights_build_no_samples(self, monkeypatch):
        built = []
        tracked = mocap.TrackedSample

        def counting(*args, **kwargs):
            built.append(1)
            return tracked(*args, **kwargs)

        monkeypatch.setattr(mocap, "TrackedSample", counting)
        campaign = Campaign(
            name="lazy-samples",
            scenarios=(get_scenario("paper-room"), get_scenario("dense-depot")),
            n_runs=2,
            flight_time_s=5.0,
            seed=3,
        )
        assert len(run_campaign(campaign).records) == 4
        assert built == []

    def test_reading_samples_returns_the_pinned_list(self):
        scenario = get_scenario("paper-room")
        mission = ExplorationMission(
            scenario.build_room(),
            make_policy("pseudo-random", PolicyConfig(cruise_speed=0.5)),
            flight_time_s=30.0,
            start=scenario.start_position(),
        )
        result = mission.run(seed=5)
        assert "samples" not in vars(result)
        assert _samples_digest(result.samples) == EXPLORE_SAMPLES
        assert result.samples is result.samples

        scenario = get_scenario("dense-depot")
        spec = Campaign(
            name="p", scenarios=(scenario,), n_runs=1, flight_time_s=20.0, seed=3
        ).missions()[0]
        op = spec.operating_point()
        mission = ClosedLoopMission(
            scenario.build_room(),
            scenario.build_objects(),
            make_policy(spec.policy, PolicyConfig(cruise_speed=spec.speed)),
            CalibratedDetectorModel(op),
            op,
            flight_time_s=20.0,
            start=scenario.start_position(),
            drone_config=scenario.drone_config(),
        )
        result = mission.run(seed=spec.seed_sequence())
        assert _samples_digest(result.samples) == SEARCH_SAMPLES
