"""Determinism regression tests for the seeded mission pipeline.

The contract: identical seeds produce bit-identical ``FlightResult``
outcomes (events, coverage, collisions) whether missions run serially or
through the multiprocessing runner; distinct seeds produce different
trajectories.
"""

import gc
import weakref

import numpy as np

from repro.mission.closed_loop import ClosedLoopMission
from repro.mission.detector_model import (
    CalibratedDetectorModel,
    paper_operating_points,
)
from repro.mission.explorer import ExplorationMission
from repro.policies import PolicyConfig, PseudoRandomPolicy
from repro.sim import Campaign, get_scenario, run_campaign
from repro.sim import runner
from repro.sim.scenario import Scenario
from repro.world import freespace, paper_object_layout, paper_room


def search_mission(flight_time=20.0):
    op = paper_operating_points()["1.0"]
    return ClosedLoopMission(
        paper_room(),
        paper_object_layout(),
        PseudoRandomPolicy(PolicyConfig(cruise_speed=0.5)),
        CalibratedDetectorModel(op),
        op,
        flight_time_s=flight_time,
    )


def tiny_campaign(seed=11):
    # 30 s flights: long enough for the pseudo-random policy to make its
    # first randomized turn (~9 s in), so distinct streams can diverge.
    return Campaign(
        name="determinism",
        scenarios=(get_scenario("paper-room"), get_scenario("apartment")),
        policies=("pseudo-random",),
        speeds=(0.5,),
        n_runs=2,
        flight_time_s=30.0,
        seed=seed,
    )


class TestMissionSeeding:
    def test_identical_int_seed_bit_identical(self):
        a = search_mission().run(seed=123)
        b = search_mission().run(seed=123)
        assert a.events == b.events
        assert a.coverage == b.coverage
        assert a.collisions == b.collisions
        assert a.detection_rate == b.detection_rate

    def test_identical_seed_sequence_bit_identical(self):
        a = search_mission().run(seed=np.random.SeedSequence(5, spawn_key=(2,)))
        b = search_mission().run(seed=np.random.SeedSequence(5, spawn_key=(2,)))
        assert a.events == b.events
        assert a.coverage == b.coverage

    def test_reusing_one_seed_sequence_instance_is_stable(self):
        # Regression: spawning streams must not mutate the caller's
        # sequence, or the second run with the same instance diverges.
        seq = np.random.SeedSequence(5, spawn_key=(2,))
        a = search_mission().run(seed=seq)
        b = search_mission().run(seed=seq)
        assert seq.n_children_spawned == 0
        assert a.events == b.events
        assert a.series.coverage.tolist() == b.series.coverage.tolist()

    def test_distinct_seeds_differ(self):
        a = search_mission().run(seed=1)
        b = search_mission().run(seed=2)
        # Coverage traces are continuous-valued; equality would mean the
        # trajectories coincide, which independent streams rule out.
        assert a.series.coverage.tolist() != b.series.coverage.tolist()

    def test_exploration_deterministic(self):
        def fly(seed):
            return ExplorationMission(
                paper_room(),
                PseudoRandomPolicy(PolicyConfig(cruise_speed=0.5)),
                flight_time_s=20.0,
            ).run(seed=seed)

        assert fly(9).coverage == fly(9).coverage
        assert fly(9).series.coverage.tolist() != fly(10).series.coverage.tolist()


class TestCampaignDeterminism:
    def test_serial_rerun_identical(self):
        first = run_campaign(tiny_campaign())
        second = run_campaign(tiny_campaign())
        assert first.records == second.records
        assert first.campaign_hash == second.campaign_hash

    def test_parallel_matches_serial_bit_identical(self):
        serial = run_campaign(tiny_campaign(), workers=None)
        pooled = run_campaign(tiny_campaign(), workers=2)
        assert serial.records == pooled.records
        assert serial.to_json() == pooled.to_json()

    def test_distinct_campaign_seeds_differ(self):
        a = run_campaign(tiny_campaign(seed=11))
        b = run_campaign(tiny_campaign(seed=12))
        assert [r.series_coverage for r in a.records] != [
            r.series_coverage for r in b.records
        ]

    def test_runs_within_campaign_are_independent(self):
        result = run_campaign(tiny_campaign())
        paper = [r for r in result.records if r.scenario == "paper-room"]
        assert paper[0].series_coverage != paper[1].series_coverage

    def test_progress_callback_sees_every_mission(self):
        seen = []
        result = run_campaign(
            tiny_campaign(),
            progress=lambda done, total, job, payload, cached: seen.append((done, total)),
        )
        assert seen == [(i + 1, len(result)) for i in range(len(result))]


class TestWorldReuse:
    """A mission in the same world as the one before reuses its room."""

    def _count_builds(self, monkeypatch):
        built = []
        real = Scenario.build_room

        def build_room(scenario):
            room = real(scenario)
            built.append(weakref.ref(room))
            return room

        monkeypatch.setattr(Scenario, "build_room", build_room)
        return built

    def test_equal_room_specs_share_one_room_and_flood_fill(self, monkeypatch):
        campaign = Campaign(
            name="reuse",
            scenarios=(get_scenario("dense-depot"), get_scenario("apartment")),
            policies=("pseudo-random", "wall-following"),
            speeds=(0.5,),
            n_runs=1,
            flight_time_s=5.0,
            seed=3,
        )
        specs = campaign.missions()
        assert [s.scenario.name for s in specs] == ["dense-depot"] * 2 + ["apartment"] * 2
        fresh = []
        for spec in specs:
            runner._latest.world = None
            fresh.append(runner.execute_mission(spec))
        runner._latest.world = None
        built = self._count_builds(monkeypatch)
        floods = []
        real_flood = freespace.reachable_free_mask
        monkeypatch.setattr(
            freespace,
            "reachable_free_mask",
            lambda *args: floods.append(args) or real_flood(*args),
        )
        reused = [runner.execute_mission(spec) for spec in specs]
        assert reused == fresh
        assert len(built) == 2
        assert len(floods) == 2

    def test_only_the_latest_world_is_kept(self, monkeypatch):
        runner._latest.world = None
        built = self._count_builds(monkeypatch)
        room_a = runner._mission_room(get_scenario("dense-depot"))
        runner._mission_room(get_scenario("apartment"))
        assert runner._mission_room(get_scenario("dense-depot")) is not room_a
        del room_a
        gc.collect()
        assert len(built) == 3
        assert [ref() is None for ref in built] == [True, True, False]
