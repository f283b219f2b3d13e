"""Simulation-core and campaign benchmark: the gates that justify fast paths.

Times the raycast kernels in isolation (brute force vs. uniform grid)
across segment counts, the fleet cast's two kernels (broadcast vs.
per-ray walk, the sweep behind ``FLEET_BROADCAST_MAX_SEGMENTS``; bit
identity asserted), the ``is_free``/``clearance`` point queries
(grid vs. brute, bit-identity asserted), fleet-vectorized vs. serial
stepping (record bit-identity asserted), a 16-mission campaign flown
serially and on a worker pool (byte-identity asserted) and the same
campaign flown plain and with ``record=True`` (byte-identity and one
trace per mission asserted). End-to-end and per-layer throughput live
in ``perfbench/`` (``python3 perfbench/run.py``).

Run standalone (this is what CI's bench smoke step does):

    PYTHONPATH=src python benchmarks/bench_sim_core.py --quick --out BENCH_sim_core.json

or through pytest: ``pytest benchmarks/bench_sim_core.py``. Results land
in ``BENCH_sim_core.json`` (see README "Performance"). Set
``REPRO_BENCH_RELAX=1`` on loaded machines to skip the point-query,
fleet, pool and recording speed assertions; the identity assertions
always run.
"""

import argparse
import json
import math
import os
import tempfile
import time

import numpy as np

from repro.drone.dynamics import CRAZYFLIE_RADIUS_M
from repro.exec import ResultCache
from repro.experiments.reporting import ascii_table, machine_info
from repro.geometry.raycast import FLEET_BROADCAST_MAX_SEGMENTS, RayCaster
from repro.geometry.vec import Vec2
from repro.obs import TraceStore
from repro.sim import Campaign, generate_scenario, get_scenario, run_campaign
from repro.world.layouts import cluttered_room
from repro.world.room import Room

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

#: Required pooled-vs-serial campaign speedup, asserted only on machines
#: with at least :data:`POOL_GATE_MIN_CORES` usable cores -- on a 1-2
#: core box the pool merely pays its process start-up cost.
REQUIRED_POOL_SPEEDUP = 2.0
POOL_GATE_MIN_CORES = 4

#: Hard ceiling on the wall-clock cost of ``record=True`` telemetry
#: capture, relative to an identical unrecorded campaign.
RECORD_OVERHEAD_LIMIT = 0.10

#: Worlds of the fleet-cast kernel sweep, by segment count: presets and
#: generated worlds on both sides of ``FLEET_BROADCAST_MAX_SEGMENTS``.
FLEET_CAST_WORLDS = (
    ("apartment", lambda: get_scenario("apartment")),
    ("cluttered-office", lambda: get_scenario("cluttered-office")),
    ("dense-depot", lambda: get_scenario("dense-depot")),
    ("scatter-field 10", lambda: generate_scenario("scatter-field", {"n_items": 10}, seed=1)),
    ("scatter-field 12", lambda: generate_scenario("scatter-field", {"n_items": 12}, seed=1)),
    ("scatter-field 14", lambda: generate_scenario("scatter-field", {"n_items": 14}, seed=1)),
    ("cluttered-warehouse", lambda: generate_scenario("cluttered-warehouse", seed=1)),
    ("perfect-maze", lambda: generate_scenario("perfect-maze", seed=1)),
    ("scatter-field 40", lambda: generate_scenario("scatter-field", seed=1)),
    (
        "scatter-field 160",
        lambda: generate_scenario(
            "scatter-field", {"n_items": 160, "width": 24.0, "length": 18.0}, seed=1
        ),
    ),
)

#: Rays per fleet cast in the sweep: the four Multi-ranger beams of 1, 12
#: (a Fig. 5 sweep's block) and 64 drones.
FLEET_CAST_RAYS = (4, 48, 256)


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


def bench_fleet_cast(repeats: int) -> list:
    """Fleet-cast latency by kernel: broadcast (``accel="none"``) vs. walk.

    Each drone casts its four beams from its own free-space origin, as a
    fleet tick does; the grid walk (``accel="grid"``) and the ``(R, S)``
    broadcast must agree bit for bit once clamped to the ToF range.
    """
    rng = np.random.default_rng(5)
    rows = []
    for label, make in FLEET_CAST_WORLDS:
        room = make().build_room()
        segments = room.all_segments()
        broadcast = RayCaster(segments, accel="none")
        walk = RayCaster(segments, accel="grid")
        row = {"world": label, "n_segments": len(segments)}
        for r in FLEET_CAST_RAYS:
            origins = []
            while len(origins) < r // 4:
                p = Vec2(rng.uniform(0.0, room.width), rng.uniform(0.0, room.length))
                if room.is_free(p, CRAZYFLIE_RADIUS_M):
                    origins.append(p)
            ox = np.repeat([p.x for p in origins], 4)
            oy = np.repeat([p.y for p in origins], 4)
            heading = rng.uniform(-math.pi, math.pi, r)
            dx, dy = np.cos(heading), np.sin(heading)
            hits = [
                np.minimum(c.cast_fleet(ox, oy, dx, dy, 4.0), 4.0).tobytes()
                for c in (broadcast, walk)
            ]
            assert hits[0] == hits[1], (label, r)
            inner = max(4, 2000 // r)
            for name, caster in (("broadcast", broadcast), ("walk", walk)):
                row[f"{name}_{r}_us"] = (
                    _time_calls(
                        lambda c=caster: c.cast_fleet(ox, oy, dx, dy, 4.0), repeats, inner
                    )
                    * 1e6
                )
        rows.append(row)
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


def build_campaign(flight_time_s: float) -> Campaign:
    """The 16-mission campaign the pool and recording sections fly."""
    return Campaign(
        name="throughput",
        scenarios=tuple(
            get_scenario(n)
            for n in ("paper-room", "apartment", "corridor-maze", "empty-arena")
        ),
        policies=("pseudo-random", "spiral"),
        n_runs=2,
        flight_time_s=flight_time_s,
        seed=2023,
    )


def bench_pool_throughput(campaign: Campaign) -> dict:
    """Serial vs. pooled wall time of ``campaign``, byte-identity asserted."""
    n = len(campaign.missions())
    # Size the pool from the cores the process may actually use, not the
    # box's total -- on cgroup-limited CI runners the two differ a lot.
    cores = machine_info()["cpus_available"] or os.cpu_count() or 1
    workers = min(4, max(2, cores))

    start = time.perf_counter()
    serial = run_campaign(campaign, workers=None)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = run_campaign(campaign, workers=workers)
    pooled_s = time.perf_counter() - start
    assert serial.to_json() == pooled.to_json(), "pooled campaign diverged"
    return {
        "missions": n,
        "flight_time_s": campaign.flight_time_s,
        "cores": cores,
        "workers": workers,
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "serial_missions_per_s": n / serial_s,
        "pooled_missions_per_s": n / pooled_s,
        "speedup": serial_s / pooled_s,
        "gate_armed": cores >= POOL_GATE_MIN_CORES,
        "bit_identical": True,  # asserted above
    }


def bench_record_overhead(campaign: Campaign, repeats: int = 5) -> dict:
    """Wall-clock cost of flight recording on a fresh campaign.

    Flies ``campaign`` from scratch ``repeats`` times per arm -- plain
    and with ``record=True`` into a throwaway trace store -- and
    asserts the observability contract: byte-identical result JSON and
    less than :data:`RECORD_OVERHEAD_LIMIT` relative wall-clock
    overhead. Each repeat times one plain and one recorded campaign
    back to back (fresh cache every time, so nothing is a hit) and the
    overhead asserted is the best of the paired ratios: pairing samples
    both arms under near-identical machine load, and the minimum
    discards pairs where background noise hit one arm but not the other
    -- external noise only ever adds time, so the best pair is the
    closest estimate of the true capture cost. The reported
    ``overhead_frac`` is the median pair, a fairer headline number on a
    loaded machine (the min can dip below zero when noise lands on the
    plain arm).
    """
    n = len(campaign.missions())

    # Both arms store results into a fresh cache so the only variable
    # is the telemetry capture itself.
    plain_s = recorded_s = float("inf")
    ratios = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            plain = run_campaign(campaign, cache=ResultCache(tmp))
            pair_plain_s = time.perf_counter() - start
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            recorded = run_campaign(campaign, cache=ResultCache(tmp), record=True)
            pair_recorded_s = time.perf_counter() - start
            trace_stats = TraceStore(tmp).stats()
        plain_s = min(plain_s, pair_plain_s)
        recorded_s = min(recorded_s, pair_recorded_s)
        ratios.append(pair_recorded_s / pair_plain_s)

    assert recorded.to_json() == plain.to_json()
    assert trace_stats.traces == n
    overhead = min(ratios) - 1.0
    median_overhead = sorted(ratios)[len(ratios) // 2] - 1.0
    # REPRO_BENCH_RELAX=1 skips the wall-clock assertion on loaded or
    # oversubscribed machines, same as the other speed gates.
    if os.environ.get("REPRO_BENCH_RELAX") != "1":
        assert overhead < RECORD_OVERHEAD_LIMIT, (
            f"recording cost {overhead:.1%} wall clock "
            f"(limit {RECORD_OVERHEAD_LIMIT:.0%}): {plain_s:.2f}s plain vs "
            f"{recorded_s:.2f}s recorded"
        )
    return {
        "missions": n,
        "plain_s": plain_s,
        "recorded_s": recorded_s,
        "overhead_frac": median_overhead,
        "best_pair_overhead_frac": overhead,
        "limit_frac": RECORD_OVERHEAD_LIMIT,
        "trace_bytes": trace_stats.total_bytes,
        "trace_bytes_per_mission": trace_stats.total_bytes / n,
    }


def run_benchmarks(quick: bool, out_path: str):
    flight_time = 10.0 if quick else 30.0
    repeats = 2 if quick else 3
    raycast = bench_raycast(repeats)
    fleet_cast = bench_fleet_cast(repeats)
    point_queries = bench_point_queries(repeats)
    fleet_throughput = bench_fleet_throughput(flight_time, repeats)
    campaign = build_campaign(flight_time)
    pool = bench_pool_throughput(campaign)
    recording = bench_record_overhead(campaign)

    print()
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
            ["world", "segs"] + [f"{r} rays [us]" for r in FLEET_CAST_RAYS],
            [
                [r["world"], str(r["n_segments"])]
                + [
                    f"{r[f'broadcast_{n}_us']:.0f} / {r[f'walk_{n}_us']:.0f}"
                    for n in FLEET_CAST_RAYS
                ]
                for r in fleet_cast
            ],
            title=(
                "fleet-cast latency, broadcast / walk (bit-identical asserted; "
                f"auto broadcasts up to {FLEET_BROADCAST_MAX_SEGMENTS} segments)"
            ),
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
    print(
        f"\npooled campaign: {pool['missions']} missions x "
        f"{pool['flight_time_s']:.0f} s, serial {pool['serial_s']:.2f} s vs "
        f"{pool['workers']} workers {pool['pooled_s']:.2f} s = "
        f"{pool['speedup']:.2f}x on {pool['cores']} cores (byte-identical; "
        f">= {REQUIRED_POOL_SPEEDUP:.0f}x asserted on >= {POOL_GATE_MIN_CORES} cores)"
    )
    print(
        f"record overhead: {recording['overhead_frac']:.1%} median pair, "
        f"{recording['best_pair_overhead_frac']:.1%} best pair "
        f"(limit {recording['limit_frac']:.0%}), "
        f"{recording['trace_bytes_per_mission'] / 1e3:.1f} kB trace/mission"
    )

    payload = {
        "benchmark": "sim_core",
        "created_unix": time.time(),
        "quick": quick,
        "machine": {**machine_info(), "numpy": np.__version__},
        "raycast": raycast,
        "fleet_cast": fleet_cast,
        "point_queries": point_queries,
        "fleet_throughput": fleet_throughput,
        "pool_throughput": pool,
        "record_overhead": recording,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nwrote {out_path}")

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
        if pool["gate_armed"]:
            assert pool["speedup"] >= REQUIRED_POOL_SPEEDUP, (
                f"pooled campaign speedup {pool['speedup']:.2f}x on "
                f"{pool['cores']} cores below the {REQUIRED_POOL_SPEEDUP:.1f}x "
                f"bar (set REPRO_BENCH_RELAX=1 on loaded machines)"
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
