"""Grid-bucketed Room.is_free / Room.clearance == brute force, bit for bit.

The point-query grid (``accel="auto"``/``"grid"``) gathers conservative
candidate subsets and evaluates the identical elementwise arithmetic, so
its answers must equal the full-array reference path (``accel="none"``)
exactly -- including on the generated 1000+-segment worlds it exists for.
The clear-cell raster in front of it answers ``True`` without the exact
test, so its edges (cell boundaries, the margin distance, the walls'
band) are probed one ulp at a time. Outside clear cells ``is_free``
runs the exact test on each cell's candidates in Python floats, so the
margin distance is probed one ulp at a time from segment midpoints and
endpoints, and a point inside the ``EXACT_BAND`` band must take the
numpy lane. A margin's raster is built on its ``RASTER_BUILD_QUERY``-th
query, so importing the presets builds none and a flight still builds
one per margin.
"""

import collections
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.drone.dynamics import CRAZYFLIE_RADIUS_M
from repro.geometry.segments import Segment
from repro.geometry.shapes import AABB
from repro.geometry.vec import Vec2
from repro.mission.explorer import ExplorationMission
from repro.policies import PolicyConfig, make_policy
from repro.sim import generate_scenario, get_scenario
from repro.world.layouts import cluttered_room
from repro.world.room import (
    CLEAR_CELLS,
    CLEAR_SLACK_M,
    POINT_GRID_THRESHOLD,
    RASTER_BUILD_QUERY,
    Obstacle,
    Room,
    _ClearCells,
    _SegmentDistanceField,
    _shape_bbox,
)

MARGINS = (0.0, 0.07, 0.1, 0.35)


def _built_raster(room, margin):
    """Query ``room`` at ``margin`` until it builds that raster; the raster."""
    for _ in range(RASTER_BUILD_QUERY - 1):
        assert room._raster(margin) is None
    return room._raster(margin)


def _rooms(width, length, obstacles):
    return (
        Room(width, length, obstacles, accel="none"),
        Room(width, length, obstacles, accel="grid"),
        Room(width, length, obstacles, accel="auto"),
    )


def _assert_equivalent(brute, grid, auto, points):
    for p in points:
        for margin in MARGINS:
            expected = brute.is_free(p, margin=margin)
            assert grid.is_free(p, margin=margin) == expected, (p, margin)
            assert auto.is_free(p, margin=margin) == expected, (p, margin)
        c = brute.clearance(p)
        assert grid.clearance(p) == c, p
        assert auto.clearance(p) == c, p


def _query_points(room, n, seed):
    """Uniform points padded past the walls, plus obstacle-hugging ones."""
    rng = np.random.default_rng(seed)
    pts = [
        Vec2(
            rng.uniform(-0.5, room.width + 0.5),
            rng.uniform(-0.5, room.length + 0.5),
        )
        for _ in range(n)
    ]
    for obs in room.obstacles[:40]:
        seg = obs.segments()[0]
        pts.append(Vec2(seg.a.x + 1e-3, seg.a.y + 1e-3))
        pts.append(seg.a)
    return pts


class TestGeneratedWorlds:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("perfect-maze", {"cols": 24, "rows": 18, "cell_m": 1.0}),
            (
                "cluttered-warehouse",
                {"width": 40.0, "length": 30.0, "aisle": 1.2, "shelf_depth": 0.5, "unit_len": 1.0},
            ),
        ],
    )
    def test_equivalence_on_1000_segment_worlds(self, family, params):
        scenario = generate_scenario(family, params, seed=5)
        spec = scenario.room
        obstacles = [o.build() for o in spec.obstacles]
        brute, grid, auto = _rooms(spec.width, spec.length, obstacles)
        assert len(brute.all_segments()) >= 1000
        assert grid._all_field._grid is not None
        assert auto._all_field._grid is not None
        assert brute._all_field._grid is None
        _assert_equivalent(brute, grid, auto, _query_points(brute, 400, seed=1))


class TestPresetWorlds:
    def test_equivalence_on_dense_clutter(self):
        base = cluttered_room(n_obstacles=40, seed=3, width=30.0, length=30.0)
        brute, grid, auto = _rooms(30.0, 30.0, base.obstacles)
        _assert_equivalent(brute, grid, auto, _query_points(brute, 300, seed=2))

    def test_forced_grid_on_tiny_room(self):
        brute, grid, _ = _rooms(4.0, 3.0, [])
        assert grid._all_field._grid is not None  # forced despite 4 segments
        _assert_equivalent(brute, grid, grid, _query_points(brute, 200, seed=3))


class TestThresholds:
    def test_auto_keeps_small_rooms_on_reference_path(self):
        room = Room(6.5, 5.5, accel="auto")
        assert room._all_field._grid is None
        assert room._raster(0.07) is None

    def test_auto_activates_above_thresholds(self):
        scenario = generate_scenario("cluttered-warehouse", {}, seed=1)
        room = scenario.build_room()
        assert len(room.all_segments()) >= POINT_GRID_THRESHOLD
        assert room._all_field._grid is not None
        assert _built_raster(room, 0.07) is not None

    def test_none_disables_everything(self):
        scenario = generate_scenario("cluttered-warehouse", {}, seed=1)
        spec = scenario.room
        room = Room(spec.width, spec.length, [o.build() for o in spec.obstacles], accel="none")
        assert room._all_field._grid is None
        assert room._obstacle_field._grid is None
        assert room._raster(0.07) is None


def _clear_cell_points(room, margin, seed):
    """Points where a clear-cell raster at ``margin`` could go wrong.

    Cell edges and one ulp either side around every grown obstacle box
    and the walls' margin band; points at ``margin`` and one ulp either
    side of it from segment midpoints, along both normals; points deep
    inside obstacles and inside the walls' margin band; and uniform
    points, most of which land in clear cells.
    """
    rng = np.random.default_rng(seed)
    h = max(room.width, room.length) / CLEAR_CELLS
    grow = margin + CLEAR_SLACK_M

    def ulps(v):
        return (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))

    def edges(v):
        """The cell edges ``k * h`` around ``v``, each with its ulp neighbours."""
        k = int(np.floor(v / h))
        return [float(u) for j in range(k - 1, k + 3) for u in ulps(j * h)]

    pts = []
    for obs in room.obstacles[:60]:
        xmin, ymin, xmax, ymax = _shape_bbox(obs.shape)
        cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
        pts += [Vec2(x, cy) for x in edges(xmin - grow) + edges(xmax + grow)]
        pts += [Vec2(cx, y) for y in edges(ymin - grow) + edges(ymax + grow)]
        for tx in (0.25, 0.5, 0.75):
            for ty in (0.25, 0.5, 0.75):
                pts.append(Vec2(xmin + tx * (xmax - xmin), ymin + ty * (ymax - ymin)))
        for seg in obs.segments():
            d = seg.b - seg.a
            n = Vec2(-d.y, d.x) * (1.0 / d.norm())
            mid = (seg.a + seg.b) * 0.5
            for side in (-1.0, 1.0):
                base = mid + n * (side * margin)
                for x, y in zip(ulps(base.x), ulps(base.y)):
                    pts.append(Vec2(float(x), float(y)))
    # Across the walls' margin band: the cell edges of its thresholds and
    # the middle of the band, at a few places along each wall.
    for extent, span, across_x in ((room.width, room.length, True), (room.length, room.width, False)):
        for v in edges(margin) + edges(extent - margin) + [margin / 2.0, extent - margin / 2.0]:
            for u in rng.uniform(0.0, span, 4):
                pts.append(Vec2(v, u) if across_x else Vec2(u, v))
    for _ in range(300):
        pts.append(Vec2(rng.uniform(0.0, room.width), rng.uniform(0.0, room.length)))
    return pts


class TestClearCells:
    """The clear-cell raster never changes an answer of the exact test."""

    @pytest.mark.parametrize(
        "scenario",
        [
            ("cluttered-office", None),
            ("perfect-maze", 4),
            ("random-apartment", 4),
            ("cluttered-warehouse", 4),
            ("scatter-field", 4),
        ],
        ids=lambda s: s[0],
    )
    def test_auto_equals_reference_at_raster_edges(self, scenario):
        name, seed = scenario
        if seed is None:
            spec = get_scenario(name).room
        else:
            spec = generate_scenario(name, {}, seed=seed).room
        obstacles = [o.build() for o in spec.obstacles]
        brute = Room(spec.width, spec.length, obstacles, accel="none")
        auto = Room(spec.width, spec.length, obstacles, accel="auto")
        for margin in MARGINS:
            pts = _clear_cell_points(brute, margin, seed=7)
            expected = [brute.is_free(p, margin=margin) for p in pts]
            got = [auto.is_free(p, margin=margin) for p in pts]
            wrong = [(p, margin) for p, e, g in zip(pts, expected, got) if e != g]
            assert not wrong, wrong[:5]
            xs = np.array([p.x for p in pts])
            ys = np.array([p.y for p in pts])
            assert auto.is_free_many(xs, ys, margin).tolist() == expected
            # The fast path is live on these points, not bypassed.
            cells = auto._raster(margin)
            assert cells is not None and cells.hits(xs, ys).sum() > 100
            assert brute._raster(margin) is None

    def test_rooms_without_a_raster(self):
        assert Room(6.5, 5.5, accel="auto")._raster(0.07) is None
        room = get_scenario("cluttered-office").build_room()
        assert room._raster(-0.05) is None  # a negative margin shrinks boxes
        assert room._raster(0.07) is room._raster(0.07)

    def test_negative_margin_takes_the_exact_test(self):
        spec = get_scenario("cluttered-office").room
        obstacles = [o.build() for o in spec.obstacles]
        brute = Room(spec.width, spec.length, obstacles, accel="none")
        auto = Room(spec.width, spec.length, obstacles, accel="auto")
        pts = _clear_cell_points(brute, 0.05, seed=3)
        for margin in (-0.05, -0.0):
            expected = [brute.is_free(p, margin=margin) for p in pts]
            assert [auto.is_free(p, margin=margin) for p in pts] == expected


def _ulps(v):
    return (float(np.nextafter(v, -np.inf)), float(v), float(np.nextafter(v, np.inf)))


def _candidate_points(room, margin):
    """Points at ``margin`` and one ulp either side of it from every
    obstacle segment's midpoint (along both normals) and from both of
    its endpoints (along the segment, so ``t`` clamps to 0 and to 1,
    and across it), plus points inside every obstacle."""
    pts = []
    for obs in room.obstacles[:60]:
        xmin, ymin, xmax, ymax = _shape_bbox(obs.shape)
        for tx in (0.1, 0.5, 0.9):
            for ty in (0.1, 0.5, 0.9):
                pts.append(Vec2(xmin + tx * (xmax - xmin), ymin + ty * (ymax - ymin)))
        for seg in obs.segments():
            d = seg.b - seg.a
            along = d * (1.0 / d.norm())
            normal = Vec2(-along.y, along.x)
            mid = (seg.a + seg.b) * 0.5
            offsets = [
                (mid, normal), (mid, -normal),
                (seg.a, -along), (seg.a, normal), (seg.b, along), (seg.b, -normal),
            ]
            for base, direction in offsets:
                probe = base + direction * margin
                for x, y in zip(_ulps(probe.x), _ulps(probe.y)):
                    pts.append(Vec2(x, y))
    return pts


def _spy_numpy_lane(room):
    """Count the room's calls of the numpy distance lane."""
    field = room._obstacle_field
    calls = []
    distances = field._distances

    def spy(p):
        calls.append(p)
        return distances(p)

    field._distances = spy
    return calls


class TestCellCandidates:
    """Outside clear cells the per-cell candidates answer as the full scan."""

    @pytest.mark.parametrize(
        "scenario",
        [
            ("cluttered-office", None),
            ("dense-depot", None),
            ("perfect-maze", 4),
            ("cluttered-warehouse", 4),
            ("scatter-field", 4),
        ],
        ids=lambda s: s[0],
    )
    def test_margin_probes_equal_reference(self, scenario):
        name, seed = scenario
        if seed is None:
            spec = get_scenario(name).room
        else:
            spec = generate_scenario(name, {}, seed=seed).room
        obstacles = [o.build() for o in spec.obstacles]
        brute = Room(spec.width, spec.length, obstacles, accel="none")
        auto = Room(spec.width, spec.length, obstacles, accel="auto")
        for margin in MARGINS:
            pts = _candidate_points(brute, margin)
            expected = [brute.is_free(p, margin=margin) for p in pts]
            got = [auto.is_free(p, margin=margin) for p in pts]
            wrong = [(p, margin) for p, e, g in zip(pts, expected, got) if e != g]
            assert not wrong, wrong[:5]
            # Both answers occur, and the probes run the candidate test.
            assert 0 < sum(expected) < len(expected)
            cells = auto._raster(margin)
            xs = np.array([p.x for p in pts])
            ys = np.array([p.y for p in pts])
            assert (~cells.hits(xs, ys)).sum() > len(pts) // 2

    def test_point_in_the_band_takes_the_numpy_lane(self):
        box = Obstacle(AABB(1.5, 1.5, 2.5, 2.5))
        brute = Room(4.0, 4.0, [box], accel="none")
        auto = Room(4.0, 4.0, [box], accel="auto")
        margin = 0.07
        _built_raster(auto, margin)
        calls = _spy_numpy_lane(auto)
        # Below the bottom edge's midpoint: the distance rounds to within
        # an ulp or two of the margin, inside the band.
        for y in _ulps(1.5 - margin):
            p = Vec2(2.0, y)
            del calls[:]
            assert auto.is_free(p, margin) == brute.is_free(p, margin)
            assert calls == [p]
        # A hundredth of the margin off the band, the Python floats decide.
        for p in (Vec2(2.0, 1.5 - 1.01 * margin), Vec2(2.0, 1.5 - 0.99 * margin)):
            del calls[:]
            assert auto.is_free(p, margin) == brute.is_free(p, margin)
            assert calls == []

    def test_zero_length_segment_never_blocks(self):
        field = _SegmentDistanceField(
            [Segment(Vec2(1.0, 1.0), Vec2(2.0, 1.0)), Segment(Vec2(3.0, 3.0), Vec2(3.0, 4.0))]
        )
        # Collapse the first segment: its lane is NaN (0 / 0) and never
        # passes within a radius, so it is no candidate either.
        field._dx[0] = field._dy[0] = field._len_sq[0] = 0.0
        p = Vec2(1.0, 1.0)
        with np.errstate(invalid="ignore"):
            assert np.isnan(field._distances(p)[0])
            assert not field.any_within(p, 0.5)
        assert [term[-1] for term in field.terms(np.arange(2))] == [1]


class TestRasterBuildPoint:
    """Rasters are built for the rooms that query them often, not at import."""

    def test_import_builds_no_raster(self):
        code = (
            "import repro.world.room as room\n"
            "built = []\n"
            "init = room._ClearCells.__init__\n"
            "def counting(self, *args):\n"
            "    built.append(args[-1])\n"
            "    init(self, *args)\n"
            "room._ClearCells.__init__ = counting\n"
            "import repro.sim\n"
            "print(len(built))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ),
            capture_output=True, check=True, text=True,
        ).stdout
        assert out.strip() == "0"

    def test_a_batch_builds_at_once(self):
        room = get_scenario("dense-depot").build_room()
        assert room.is_free_many(np.array([1.0]), np.array([1.0]), CRAZYFLIE_RADIUS_M).all()
        assert list(room._clear_cells) == [CRAZYFLIE_RADIUS_M]

    @pytest.mark.parametrize("name", ["dense-depot", "cluttered-office"])
    def test_flight_builds_one_raster_per_margin(self, name, monkeypatch):
        built = collections.Counter()
        init = _ClearCells.__init__

        def counting(self, bounds, shapes, field, margin):
            built[margin] += 1
            init(self, bounds, shapes, field, margin)

        monkeypatch.setattr(_ClearCells, "__init__", counting)
        scenario = get_scenario(name)
        spec = scenario.room
        results = []
        for accel in ("auto", "none"):
            room = Room(spec.width, spec.length, [o.build() for o in spec.obstacles], accel=accel)
            mission = ExplorationMission(
                room,
                make_policy("wall-following", PolicyConfig(cruise_speed=0.5)),
                flight_time_s=10.0,
                start=scenario.start_position(),
                drone_config=scenario.drone_config(),
            )
            results.append(mission.run(seed=3))
            assert set(built.values()) == {1}
        assert list(built) == [CRAZYFLIE_RADIUS_M]
        auto, reference = results
        assert auto.series.coverage.tolist() == reference.series.coverage.tolist()
        assert [s.position for s in auto.samples] == [s.position for s in reference.samples]
        assert (auto.collisions, auto.distance_flown_m) == (
            reference.collisions, reference.distance_flown_m,
        )
