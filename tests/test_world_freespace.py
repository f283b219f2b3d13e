"""Tests for repro.world.freespace and the reachable-coverage metric.

Covers the PR-4 acceptance criteria:

- the ``free_space_mask``/``flood_fill`` extraction out of
  ``repro.sim.generators`` is a *pure move*: generated-world content
  hashes and raster fingerprints are byte-identical to the pre-PR ones,
- on a fully-reachable raster the normalized coverage equals
  ``visited / n_cells`` exactly,
- on a generated perfect maze a full sweep of the reachable cells
  reports ``coverage == 1.0`` while ``coverage_raw < 1.0``.
"""

import hashlib

import numpy as np
import pytest

from repro.geometry.shapes import AABB
from repro.geometry.vec import Vec2
from repro.mapping.occupancy import OccupancyGrid
from repro.mission.explorer import ExplorationMission
from repro.policies import PolicyConfig
from repro.policies.pseudo_random import PseudoRandomPolicy
from repro.sim import generate_scenario, get_scenario
from repro.world import (
    FINE_RESOLUTION_M,
    VALIDATION_MARGIN_M,
    Obstacle,
    Room,
    flood_fill,
    free_space_mask,
    reachable_cell_mask,
    reachable_free_mask,
)

#: Content hashes of generated worlds captured on the pre-extraction
#: tree (PR 3): the move of the raster code must not change a byte of
#: any generated scenario.
PINNED_CONTENT_HASHES = {
    ("perfect-maze", (("cell_m", 1.0), ("cols", 6), ("rows", 5)), 3): (
        "03ff1a4e23d02a0580d19570fe21a6f72a6a8d9ba3985d0266b511400253b560"
    ),
    ("perfect-maze", (), 0): (
        "494ca020c360d348347ea5bd07a096e3f31cdb65a307da2cc08bc616aa7f69a5"
    ),
    ("random-apartment", (), 1): (
        "34b40af243610dd82d545fafc1d0e3162c36c8bd5eba5afcf121112b636a2342"
    ),
    ("cluttered-warehouse", (), 2): (
        "7a85ae681b0530402ef103984f9648afe36f67b9f1e4b2ac0d15476af845923b"
    ),
    ("scatter-field", (), 4): (
        "55b1b0aff626eb0566c04166ccc847432ba1c64800228fe2b0c8b011ab0090ba"
    ),
}

#: sha256[:16] of ``np.packbits(free_space_mask(room, 0.25))`` captured
#: pre-extraction for two generated worlds.
PINNED_RASTER_FINGERPRINTS = {
    ("perfect-maze", (("cell_m", 1.0), ("cols", 6), ("rows", 5)), 3): (
        "f2627b986bfb06b8"
    ),
    ("cluttered-warehouse", (), 2): "b8454683e46e0fc5",
}


def _mask_digest(mask: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(mask).tobytes()).hexdigest()[:16]


class TestPureMove:
    def test_generators_reexport_same_functions(self):
        from repro.sim import generators

        assert generators.free_space_mask is free_space_mask
        assert generators.flood_fill is flood_fill
        assert generators.VALIDATION_MARGIN_M == VALIDATION_MARGIN_M

    @pytest.mark.parametrize(
        "family, params, seed, expected",
        [(k[0], dict(k[1]), k[2], v) for k, v in PINNED_CONTENT_HASHES.items()],
    )
    def test_generated_content_hashes_unchanged(self, family, params, seed, expected):
        assert generate_scenario(family, params, seed).content_hash() == expected

    @pytest.mark.parametrize(
        "family, params, seed, expected",
        [(k[0], dict(k[1]), k[2], v) for k, v in PINNED_RASTER_FINGERPRINTS.items()],
    )
    def test_raster_fingerprints_unchanged(self, family, params, seed, expected):
        room = generate_scenario(family, params, seed).build_room()
        assert _mask_digest(free_space_mask(room, 0.25)) == expected


class TestReachableFreeMask:
    def test_seeded_at_start_cell(self):
        room = Room(4.0, 2.0, [Obstacle(AABB(1.9, 0.0, 2.1, 2.0), name="wall")])
        left = reachable_free_mask(room, Vec2(0.5, 0.5), 0.1)
        right = reachable_free_mask(room, Vec2(3.5, 0.5), 0.1)
        free = free_space_mask(room, 0.1)
        assert left.sum() + right.sum() == free.sum()
        assert not (left & right).any()

    def test_blocked_start_snaps_to_nearest_free_cell(self):
        # A pose hugging the wall closer than the margin sits on a
        # blocked raster cell; the fill must still find the component.
        room = Room(4.0, 2.0)
        hugging = reachable_free_mask(room, Vec2(0.02, 0.02), 0.1)
        centred = reachable_free_mask(room, Vec2(2.0, 1.0), 0.1)
        assert (hugging == centred).all()
        assert hugging.any()

    def test_no_free_space_is_empty(self):
        room = Room(1.0, 1.0, [Obstacle(AABB(0.0, 0.0, 1.0, 1.0), name="slab")])
        assert not reachable_free_mask(room, Vec2(0.5, 0.5), 0.1).any()


class TestReachableCellMask:
    def test_empty_room_every_cell_reachable(self):
        room = get_scenario("paper-room").room.build()
        mask = reachable_cell_mask(room, Vec2(1.0, 1.0), 0.5, (11, 13))
        assert mask.shape == (11, 13)
        assert mask.all()

    def test_sealed_pocket_unreachable(self):
        room = Room(4.0, 2.0, [Obstacle(AABB(1.9, 0.0, 2.1, 2.0), name="wall")])
        mask = reachable_cell_mask(room, Vec2(0.5, 0.5), 0.5, (4, 8))
        # Left of the wall reachable, right half not; the wall column
        # cells still contain reachable free space on their left edge.
        assert mask[:, :3].all()
        assert not mask[:, 5:].any()

    def test_ceil_overshoot_cells_unreachable(self):
        # 2.05 m room on a 0.5 m grid: the 5th column covers only the
        # margin sliver before the far wall plus the ceil overshoot
        # beyond it, so no reachable free space falls inside it.
        room = Room(2.05, 2.0)
        mask = reachable_cell_mask(room, Vec2(0.5, 0.5), 0.5, (4, 5))
        assert mask[:, :4].all()
        assert not mask[:, 4].any()

    def test_degenerate_world_counts_every_cell(self):
        room = Room(1.0, 1.0, [Obstacle(AABB(0.0, 0.0, 1.0, 1.0), name="slab")])
        mask = reachable_cell_mask(room, Vec2(0.5, 0.5), 0.5, (2, 2))
        assert mask.all()  # degrade to raw normalization, never 0/0

    def test_a_room_floods_each_mask_once(self, monkeypatch):
        from repro.world import freespace

        room = Room(4.0, 2.0, [Obstacle(AABB(1.9, 0.0, 2.1, 2.0), name="wall")])
        floods = []
        real = freespace.reachable_free_mask
        monkeypatch.setattr(
            freespace,
            "reachable_free_mask",
            lambda *args: floods.append(args) or real(*args),
        )
        first = reachable_cell_mask(room, Vec2(0.5, 0.5), 0.5, (4, 8))
        first[:] = False  # callers get copies
        again = reachable_cell_mask(room, Vec2(0.5, 0.5), 0.5, (4, 8))
        assert len(floods) == 1
        assert again[:, :3].all() and not again[:, 5:].any()
        reachable_cell_mask(room, Vec2(3.5, 0.5), 0.5, (4, 8))
        reachable_cell_mask(Room(4.0, 2.0), Vec2(0.5, 0.5), 0.5, (4, 8))
        assert len(floods) == 3

    def test_fine_resolution_resolves_generator_walls(self):
        assert FINE_RESOLUTION_M <= 0.1


class TestCoverageAcceptance:
    def test_maze_full_sweep_hits_one(self):
        # Acceptance: sweeping every reachable cell of a generated
        # perfect maze reports coverage == 1.0 while the raw all-cells
        # fraction stays below 1.0 (the grid has unreachable cells).
        scenario = generate_scenario("perfect-maze", {}, seed=0)
        room = scenario.build_room()
        grid = OccupancyGrid(room, start=Vec2(*scenario.start))
        assert grid.reachable_cells == 456
        assert grid.n_cells == 480
        mask = grid.reachable_mask
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                if mask[iy, ix]:
                    grid.record(
                        Vec2((ix + 0.5) * grid.cell_size, (iy + 0.5) * grid.cell_size),
                        0.02,
                    )
        assert grid.coverage() == 1.0
        assert grid.coverage_raw() == 456 / 480
        assert grid.coverage_raw() < 1.0

    def test_pinned_reachable_counts(self):
        # Geometry-deterministic regression values for the worlds the
        # figures and the CI smoke campaign fly.
        cases = {
            ("paper-room",): (143, 143),
            ("cluttered-warehouse",): (1308, 1536),
        }
        room = get_scenario("paper-room").room.build()
        grid = OccupancyGrid(room, start=Vec2(1.0, 1.0))
        assert (grid.reachable_cells, grid.n_cells) == cases[("paper-room",)]
        scenario = generate_scenario("cluttered-warehouse", {}, seed=2)
        grid = OccupancyGrid(scenario.build_room(), start=Vec2(*scenario.start))
        assert (grid.reachable_cells, grid.n_cells) == cases[("cluttered-warehouse",)]

    def test_paper_room_mission_coverage_equals_raw(self):
        # Acceptance: on a fully-reachable raster the two
        # normalizations agree exactly, so the Fig. 5 / Fig. 6 numbers
        # on the paper room are untouched by the metric fix.
        room = get_scenario("paper-room").room.build()
        mission = ExplorationMission(
            room,
            PseudoRandomPolicy(PolicyConfig(cruise_speed=0.5)),
            flight_time_s=20.0,
        )
        result = mission.run(seed=3)
        assert result.reachable_cells == result.grid.n_cells == 143
        assert result.grid_cells == 143
        assert result.coverage == result.coverage_raw
        assert result.coverage == result.grid.visited_count() / result.grid.n_cells

    def test_maze_mission_reports_normalized_coverage(self):
        # 6.6 x 5.5 m: the 0.5 m grid overshoots the width by 0.4 m and
        # the last in-room sliver sits inside the margin band, so the
        # 14th column (11 cells) is unreachable: 143 of 154 cells.
        scenario = generate_scenario(
            "perfect-maze", {"cols": 6, "rows": 5, "cell_m": 1.1}, seed=1
        )
        mission = ExplorationMission(
            scenario.build_room(),
            PseudoRandomPolicy(PolicyConfig(cruise_speed=0.5)),
            flight_time_s=15.0,
            start=Vec2(*scenario.start),
        )
        result = mission.run(seed=2)
        assert 0 < result.reachable_cells < result.grid_cells
        assert result.coverage <= 1.0
        assert result.coverage == pytest.approx(
            result.grid.visited_reachable_count() / result.reachable_cells
        )
        assert result.coverage > result.coverage_raw
