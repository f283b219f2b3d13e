"""Simulation-core microbenchmark: absolute tick-loop and kernel throughput.

Measures single-mission throughput (wall seconds and control ticks per
second) of the closed-loop tick loop on three presets, flying each
mission several times and asserting that the repeats are identical.
Also times the raycast kernels in isolation (brute force vs. uniform
grid) across segment counts, the ``is_free``/``clearance``
point queries (grid vs. brute, bit-identity asserted), the free-space
raster build against pinned fingerprints, and fleet-vectorized vs.
serial stepping (record bit-identity asserted).

Run standalone (this is what CI's bench smoke step does):

    PYTHONPATH=src python benchmarks/bench_sim_core.py --quick --out BENCH_sim_core.json

or through pytest: ``pytest benchmarks/bench_sim_core.py``. Results land
in ``BENCH_sim_core.json`` (see README "Performance"). Set
``REPRO_BENCH_RELAX=1`` on loaded machines to skip the point-query and
fleet speedup assertions; the identity assertions always run.
"""

import argparse
import json
import math
import os
import time

import numpy as np

from repro.experiments.reporting import ascii_table, machine_info
from repro.geometry.raycast import RayCaster
from repro.geometry.vec import Vec2
from repro.mission.closed_loop import ClosedLoopMission
from repro.mission.detector_model import CalibratedDetectorModel, paper_operating_points
from repro.policies import PolicyConfig
from repro.policies.registry import make_policy
from repro.sim import generate_scenario, get_scenario
from repro.world.layouts import cluttered_room
from repro.world.room import Room

#: Scenarios timed by the mission benchmark.
MISSION_SCENARIOS = ("paper-room", "dense-depot", "apartment")

#: Required grid-vs-brute speedup for ``is_free`` point queries on a
#: generated 1000+-segment world (the PR-3 acceptance bar).
REQUIRED_POINT_QUERY_SPEEDUP = 2.0

#: Fleet sizes swept by the fleet-throughput benchmark.
FLEET_SIZES = (1, 8, 64)

#: Required fleet-vs-serial throughput gain at the largest fleet size on
#: paper-room (the fleet-vectorization acceptance bar). Quick mode flies
#: 3x shorter missions, so the fleet's per-block setup (noise-tape
#: pre-generation, schedules) amortizes over fewer ticks and the smoke
#: bar is lower.
REQUIRED_FLEET_SPEEDUP = 3.0
REQUIRED_FLEET_SPEEDUP_QUICK = 2.5


def build_mission(name, flight_time):
    scenario = get_scenario(name)
    op = paper_operating_points()[scenario.ssd_width]
    policy = make_policy(
        scenario.policy, PolicyConfig(cruise_speed=scenario.cruise_speed)
    )
    return ClosedLoopMission(
        scenario.build_room(),
        scenario.build_objects(),
        policy,
        CalibratedDetectorModel(op),
        op,
        flight_time_s=flight_time,
        start=scenario.start_position(),
        drone_config=scenario.drone_config(),
    )


def _result_fingerprint(result):
    return (
        result.events,
        result.coverage,
        result.coverage_raw,
        result.reachable_cells,
        result.collisions,
        result.distance_flown_m,
        result.series.coverage.tolist(),
    )


def bench_missions(flight_time: float, repeats: int, seed: int = 7):
    """Best-of-``repeats`` wall time of one closed-loop mission per preset."""
    rows = []
    for name in MISSION_SCENARIOS:
        wall_s = math.inf
        fingerprints = []
        for _ in range(repeats):
            mission = build_mission(name, flight_time)
            start = time.perf_counter()
            result = mission.run(seed=seed)
            wall_s = min(wall_s, time.perf_counter() - start)
            fingerprints.append(_result_fingerprint(result))
        ticks = int(round(flight_time / 0.02))
        rows.append(
            {
                "scenario": name,
                "flight_time_s": flight_time,
                "ticks": ticks,
                "wall_s": wall_s,
                "ticks_per_s": ticks / wall_s,
                "repeatable": all(f == fingerprints[0] for f in fingerprints),
            }
        )
    return rows


def _time_calls(fn, repeats, inner):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def bench_raycast(repeats: int, inner: int = 400):
    """Per-call latency of a 4-beam cast, brute-force vs. grid kernel."""
    worlds = {
        "paper-room (S=4)": get_scenario("paper-room").build_room().all_segments(),
        "dense-depot (S=84)": get_scenario("dense-depot").build_room().all_segments(),
        "big-hall (S=344)": cluttered_room(
            n_obstacles=40, seed=3, width=30.0, length=30.0
        ).all_segments(),
    }
    origin = Vec2(2.0, 2.0)
    headings = [0.3, 1.7, -2.0, 3.0]
    rows = []
    for label, segments in worlds.items():
        brute = RayCaster(segments, accel="none")
        grid = RayCaster(segments, accel="grid")
        brute_us = (
            _time_calls(lambda: brute.cast_many(origin, headings, 4.0), repeats, inner)
            * 1e6
        )
        grid_us = (
            _time_calls(lambda: grid.cast_many(origin, headings, 4.0), repeats, inner)
            * 1e6
        )
        rows.append(
            {
                "world": label,
                "n_segments": len(segments),
                "brute_us": brute_us,
                "grid_us": grid_us,
            }
        )
    return rows


def bench_point_queries(repeats: int, n_points: int = 1500):
    """``is_free``/``clearance`` latency, grid vs. brute, on generated worlds.

    Uses the scenario generators' 1000+-segment maze and warehouse --
    the workloads the point-query grid exists for -- and asserts the
    two paths agree bit-for-bit on every sampled point before timing.
    """
    worlds = {
        "perfect-maze": generate_scenario(
            "perfect-maze", {"cols": 24, "rows": 18, "cell_m": 1.0}, seed=5
        ),
        "cluttered-warehouse": generate_scenario(
            "cluttered-warehouse",
            {"width": 40.0, "length": 30.0, "aisle": 1.2, "shelf_depth": 0.5, "unit_len": 1.0},
            seed=5,
        ),
    }
    rng = np.random.default_rng(11)
    rows = []
    for label, scenario in worlds.items():
        spec = scenario.room
        obstacles = [o.build() for o in spec.obstacles]
        brute = Room(spec.width, spec.length, obstacles, accel="none")
        grid = Room(spec.width, spec.length, obstacles, accel="auto")
        n_segments = len(brute.all_segments())
        assert n_segments >= 1000, (label, n_segments)
        points = [
            Vec2(rng.uniform(0.0, spec.width), rng.uniform(0.0, spec.length))
            for _ in range(n_points)
        ]
        for p in points:
            assert brute.is_free(p, margin=0.12) == grid.is_free(p, margin=0.12)
            assert brute.clearance(p) == grid.clearance(p)

        def _free(room):
            return lambda: [room.is_free(p, margin=0.12) for p in points]

        def _clear(room):
            return lambda: [room.clearance(p) for p in points]

        free_brute_us = _time_calls(_free(brute), repeats, 1) / n_points * 1e6
        free_grid_us = _time_calls(_free(grid), repeats, 1) / n_points * 1e6
        clear_brute_us = _time_calls(_clear(brute), repeats, 1) / n_points * 1e6
        clear_grid_us = _time_calls(_clear(grid), repeats, 1) / n_points * 1e6
        rows.append(
            {
                "world": label,
                "n_segments": n_segments,
                "n_obstacles": len(obstacles),
                "is_free_brute_us": free_brute_us,
                "is_free_grid_us": free_grid_us,
                "clearance_brute_us": clear_brute_us,
                "clearance_grid_us": clear_grid_us,
                "speedup_is_free": free_brute_us / free_grid_us,
                "speedup_clearance": clear_brute_us / clear_grid_us,
                "bit_identical": True,  # asserted above over every point
            }
        )
    return rows


#: Pre-extraction raster fingerprints: sha256 of the packed bits of
#: ``free_space_mask(room, 0.25)``, captured while the function still
#: lived in ``repro.sim.generators`` (PR 3). The extraction to
#: ``repro.world.freespace`` is a pure move, so these must never drift.
FREESPACE_WORLDS = (
    {
        "world": "perfect-maze",
        "params": {"cols": 6, "rows": 5, "cell_m": 1.0},
        "seed": 3,
        "resolution": 0.25,
        "mask_sha256_16": "f2627b986bfb06b8",
    },
    {
        "world": "cluttered-warehouse",
        "params": {},
        "seed": 2,
        "resolution": 0.25,
        "mask_sha256_16": "b8454683e46e0fc5",
    },
)


def bench_freespace_raster(repeats: int, inner: int = 20):
    """Free-space mask build + flood fill on generated worlds.

    Asserts the rasters are identical to the pre-extraction generator
    ones twice over: the ``repro.sim.generators`` import path must
    resolve to the very functions now in ``repro.world.freespace``, and
    the produced mask must match the fingerprint pinned before the move.
    """
    import hashlib

    from repro.sim import generators as gen
    from repro.world import freespace

    assert gen.free_space_mask is freespace.free_space_mask
    assert gen.flood_fill is freespace.flood_fill
    rows = []
    for cfg in FREESPACE_WORLDS:
        scenario = generate_scenario(cfg["world"], cfg["params"], seed=cfg["seed"])
        room = scenario.build_room()
        res = cfg["resolution"]
        mask = freespace.free_space_mask(room, res)
        digest = hashlib.sha256(np.packbits(mask).tobytes()).hexdigest()[:16]
        assert digest == cfg["mask_sha256_16"], (
            f"{cfg['world']}: raster drifted from the pre-extraction "
            f"fingerprint ({digest} != {cfg['mask_sha256_16']})"
        )
        seed_cell = tuple(int(v) for v in np.argwhere(mask)[0])
        reach = freespace.flood_fill(mask, seed_cell)
        mask_us = _time_calls(
            lambda: freespace.free_space_mask(room, res), repeats, inner
        ) * 1e6
        fill_us = _time_calls(
            lambda: freespace.flood_fill(mask, seed_cell), repeats, inner
        ) * 1e6
        rows.append(
            {
                "world": cfg["world"],
                "resolution_m": res,
                "raster_shape": list(mask.shape),
                "free_cells": int(mask.sum()),
                "reachable_cells": int(reach.sum()),
                "mask_sha256_16": digest,
                "mask_build_us": mask_us,
                "flood_fill_us": fill_us,
                "identical_to_pre_extraction": True,  # asserted above
            }
        )
    return rows


def bench_fleet_throughput(flight_time: float, repeats: int) -> list:
    """Fleet-vectorized vs. serial mission stepping on paper-room.

    Flies the same N-mission block (identical specs, only the run index
    and seed stream differ) through the serial :func:`fly_mission` loop
    and through the lock-step :func:`~repro.sim.fleet.fly_fleet`
    stepper, asserting record bit-identity before reporting throughput.
    N=1 is expected to *lose* (vectorization overhead with nothing to
    amortize it over -- the reason the runner's ``fleet_block`` gate
    ignores blocks of one); the win grows with N as the per-tick numpy
    dispatch spreads over the whole block.
    """
    from repro.sim.campaign import MissionSpec
    from repro.sim.fleet import fly_fleet
    from repro.sim.runner import fly_mission

    scenario = get_scenario("paper-room")
    rows = []
    for n in FLEET_SIZES:
        specs = [
            MissionSpec(
                index=i,
                scenario=scenario,
                kind="explore",
                policy="pseudo-random",
                speed=0.5,
                ssd_width=None,
                run_idx=i,
                flight_time_s=flight_time,
                seed_entropy=20240807,
                spawn_key=(11, i),
            )
            for i in range(n)
        ]
        serial_s = math.inf
        serial_records = None
        for _ in range(repeats):
            start = time.perf_counter()
            flown = [fly_mission(spec)[0] for spec in specs]
            serial_s = min(serial_s, time.perf_counter() - start)
            serial_records = flown
        fleet_s = math.inf
        fleet_records = None
        for _ in range(repeats):
            start = time.perf_counter()
            flown = fly_fleet(specs)
            fleet_s = min(fleet_s, time.perf_counter() - start)
            fleet_records = flown
        identical = [f.to_dict() for f in fleet_records] == [
            s.to_dict() for s in serial_records
        ]
        rows.append(
            {
                "scenario": "paper-room",
                "n": n,
                "serial_s": serial_s,
                "fleet_s": fleet_s,
                "serial_missions_per_s": n / serial_s,
                "fleet_missions_per_s": n / fleet_s,
                "speedup": serial_s / fleet_s,
                "bit_identical": identical,
            }
        )
    return rows


def run_benchmarks(quick: bool, out_path: str):
    flight_time = 10.0 if quick else 30.0
    repeats = 2 if quick else 3
    missions = bench_missions(flight_time, repeats)
    raycast = bench_raycast(repeats)
    point_queries = bench_point_queries(repeats)
    freespace_raster = bench_freespace_raster(repeats)
    fleet_throughput = bench_fleet_throughput(flight_time, repeats)

    print()
    print(
        ascii_table(
            ["scenario", "wall [s]", "ticks/s", "repeatable"],
            [
                [
                    r["scenario"],
                    f"{r['wall_s']:.3f}",
                    f"{r['ticks_per_s']:.0f}",
                    str(r["repeatable"]),
                ]
                for r in missions
            ],
            title=(
                f"single-mission throughput, {flight_time:.0f} s simulated "
                f"flight, best of {repeats}"
            ),
        )
    )
    print(
        ascii_table(
            ["world", "brute [us]", "grid [us]"],
            [
                [r["world"], f"{r['brute_us']:.1f}", f"{r['grid_us']:.1f}"]
                for r in raycast
            ],
            title="4-beam cast latency by kernel",
        )
    )
    print(
        ascii_table(
            ["world", "segs", "is_free brute/grid [us]", "clearance brute/grid [us]", "speedups"],
            [
                [
                    r["world"],
                    str(r["n_segments"]),
                    f"{r['is_free_brute_us']:.1f} / {r['is_free_grid_us']:.1f}",
                    f"{r['clearance_brute_us']:.1f} / {r['clearance_grid_us']:.1f}",
                    f"{r['speedup_is_free']:.1f}x / {r['speedup_clearance']:.1f}x",
                ]
                for r in point_queries
            ],
            title="point-query latency on generated worlds (bit-identical asserted)",
        )
    )
    print(
        ascii_table(
            ["world", "raster", "free/reach", "mask [us]", "fill [us]"],
            [
                [
                    r["world"],
                    "x".join(str(v) for v in r["raster_shape"]),
                    f"{r['free_cells']}/{r['reachable_cells']}",
                    f"{r['mask_build_us']:.0f}",
                    f"{r['flood_fill_us']:.0f}",
                ]
                for r in freespace_raster
            ],
            title=(
                "free-space raster + flood fill (identical to the "
                "pre-extraction generator rasters, fingerprint-asserted)"
            ),
        )
    )
    print()
    print(
        ascii_table(
            ["N", "serial [s]", "fleet [s]", "missions/s", "speedup", "identical"],
            [
                [
                    str(r["n"]),
                    f"{r['serial_s']:.3f}",
                    f"{r['fleet_s']:.3f}",
                    f"{r['fleet_missions_per_s']:.1f}",
                    f"{r['speedup']:.2f}x",
                    str(r["bit_identical"]),
                ]
                for r in fleet_throughput
            ],
            title=(
                f"fleet-vectorized stepping, paper-room x {flight_time:.0f} s "
                f"flights (serial = per-mission loop, same records)"
            ),
        )
    )

    payload = {
        "benchmark": "sim_core",
        "created_unix": time.time(),
        "quick": quick,
        "machine": {**machine_info(), "numpy": np.__version__},
        "missions": missions,
        "raycast": raycast,
        "point_queries": point_queries,
        "freespace_raster": freespace_raster,
        "fleet_throughput": fleet_throughput,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nwrote {out_path}")

    for r in missions:
        assert r["repeatable"], f"{r['scenario']}: repeated flights diverged"
    for r in fleet_throughput:
        assert r["bit_identical"], f"fleet N={r['n']}: fleet and serial diverged"
    if os.environ.get("REPRO_BENCH_RELAX") != "1":
        for r in point_queries:
            assert r["speedup_is_free"] >= REQUIRED_POINT_QUERY_SPEEDUP, (
                f"{r['world']}: is_free grid speedup {r['speedup_is_free']:.2f}x "
                f"below the {REQUIRED_POINT_QUERY_SPEEDUP:.1f}x bar "
                f"(set REPRO_BENCH_RELAX=1 on loaded machines)"
            )
        fleet_bar = (
            REQUIRED_FLEET_SPEEDUP_QUICK if quick else REQUIRED_FLEET_SPEEDUP
        )
        biggest = max(fleet_throughput, key=lambda r: r["n"])
        assert biggest["speedup"] >= fleet_bar, (
            f"fleet N={biggest['n']} speedup {biggest['speedup']:.2f}x below "
            f"the {fleet_bar:.1f}x bar (set REPRO_BENCH_RELAX=1 on loaded "
            f"machines)"
        )
    return payload


def test_sim_core_bench():
    """Pytest entry point (quick unless REPRO_FULL=1)."""
    quick = os.environ.get("REPRO_FULL") != "1"
    run_benchmarks(quick=quick, out_path="BENCH_sim_core.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="10 s flights, 2 repeats (CI smoke); default is 30 s x 3",
    )
    parser.add_argument(
        "--out",
        default="BENCH_sim_core.json",
        help="path of the emitted JSON report",
    )
    args = parser.parse_args(argv)
    run_benchmarks(quick=args.quick, out_path=args.out)


if __name__ == "__main__":
    main()
