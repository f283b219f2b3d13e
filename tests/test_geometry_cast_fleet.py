"""``RayCaster.cast_fleet`` against the per-ray cast, on every world.

A fleet cast resolves many rays, each from its own origin, with the
``(R, S)`` broadcast kernel or a per-ray grid walk: under
``accel="auto"`` it broadcasts up to
:data:`~repro.geometry.raycast.FLEET_BROADCAST_MAX_SEGMENTS` segments and
walks above, and under ``accel="grid"`` it always walks. Whichever kernel
runs, every entry, clamped to the range as the fleet stepper clamps it,
must carry the bits of the per-ray :meth:`~RayCaster.cast` and of the
``accel="none"`` reference. The rays come from free-space origins and
include rays along walls and rays through segment endpoints.
"""

import math

import numpy as np
import pytest

from repro.drone.dynamics import CRAZYFLIE_RADIUS_M
from repro.geometry import raycast
from repro.geometry.raycast import FLEET_BROADCAST_MAX_SEGMENTS, RayCaster
from repro.geometry.vec import Vec2
from repro.sensors.tof import VL53L1X_MAX_RANGE_M
from repro.sim import get_scenario, scenario_names
from repro.sim.generators import family_names, get_family

RAY_COUNTS = (1, 4, 48, 256)

WORLDS = [(name, lambda name=name: get_scenario(name)) for name in scenario_names()] + [
    (family, lambda family=family: get_family(family).generate(seed=3))
    for family in family_names()
]


def _segments(make):
    return make().build_room().all_segments()


def test_worlds_lie_on_both_sides_of_the_bound():
    counts = [len(_segments(make)) for _, make in WORLDS]
    assert min(counts) < raycast.GRID_SEGMENT_THRESHOLD
    assert any(
        raycast.GRID_SEGMENT_THRESHOLD <= c <= FLEET_BROADCAST_MAX_SEGMENTS
        for c in counts
    )
    assert max(counts) > FLEET_BROADCAST_MAX_SEGMENTS


def _rays(room, segments, r, rng):
    """``r`` rays from free-space origins: a third along a wall, a third
    through a segment endpoint, the rest at random headings."""
    bounds = room.bounds
    origins = []
    while len(origins) < r:
        p = Vec2(
            rng.uniform(bounds.xmin, bounds.xmax), rng.uniform(bounds.ymin, bounds.ymax)
        )
        if room.is_free(p, CRAZYFLIE_RADIUS_M):
            origins.append(p)
    headings = []
    for i, p in enumerate(origins):
        seg = segments[int(rng.integers(len(segments)))]
        if i % 3 == 0:
            heading = math.atan2(seg.b.y - seg.a.y, seg.b.x - seg.a.x)
        elif i % 3 == 1:
            end = seg.a if rng.random() < 0.5 else seg.b
            heading = math.atan2(end.y - p.y, end.x - p.x)
        else:
            heading = rng.uniform(-math.pi, math.pi)
        headings.append(heading)
    return origins, headings


@pytest.mark.parametrize("r", RAY_COUNTS)
@pytest.mark.parametrize("name, make", WORLDS, ids=[name for name, _ in WORLDS])
def test_every_entry_equals_the_per_ray_cast(name, make, r):
    room = make().build_room()
    segments = room.all_segments()
    origins, headings = _rays(room, segments, r, np.random.default_rng(r))
    ox = np.array([p.x for p in origins])
    oy = np.array([p.y for p in origins])
    h = np.array(headings)
    max_range = VL53L1X_MAX_RANGE_M
    per_ray = np.array(
        [room.raycaster.cast(p, heading, max_range) for p, heading in zip(origins, headings)]
    )
    for accel in ("auto", "none", "grid"):
        caster = RayCaster(segments, accel=accel)
        hits = caster.cast_fleet(ox, oy, np.cos(h), np.sin(h), max_range)
        clamped = np.minimum(hits, max_range)
        assert clamped.tobytes() == per_ray.tobytes(), (name, accel, r)


@pytest.mark.parametrize("name, make", WORLDS, ids=[name for name, _ in WORLDS])
def test_the_kernel_follows_the_segment_bound(name, make, monkeypatch):
    """``auto`` walks only above the bound; ``grid`` walks at every size."""
    walked = []
    walk = raycast._UniformGrid.cast

    def counting_walk(grid, *args):
        walked.append(args)
        return walk(grid, *args)

    monkeypatch.setattr(raycast._UniformGrid, "cast", counting_walk)
    room = make().build_room()
    segments = room.all_segments()
    origins, headings = _rays(room, segments, 8, np.random.default_rng(0))
    ox = np.array([p.x for p in origins])
    oy = np.array([p.y for p in origins])
    h = np.array(headings)
    expect = {
        "auto": 8 if len(segments) > FLEET_BROADCAST_MAX_SEGMENTS else 0,
        "grid": 8,
        "none": 0,
    }
    for accel, rays_walked in expect.items():
        caster = RayCaster(segments, accel=accel)
        walked.clear()
        caster.cast_fleet(ox, oy, np.cos(h), np.sin(h), VL53L1X_MAX_RANGE_M)
        assert len(walked) == rays_walked, (name, accel)
