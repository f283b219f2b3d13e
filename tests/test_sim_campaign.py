"""Tests for campaign expansion, hashing and the columnar result store."""

import os

import numpy as np
import pytest

from repro.errors import SimError
from repro.mission.detector_model import DetectorOperatingPoint
from repro.sim import (
    Campaign,
    CampaignResult,
    MissionRecord,
    OperatingPointSpec,
    get_scenario,
    paper_operating_point_spec,
    run_campaign,
)


def small_campaign(**overrides):
    kwargs = dict(
        name="test",
        scenarios=(get_scenario("paper-room"),),
        policies=("pseudo-random", "spiral"),
        speeds=(0.5, 1.0),
        n_runs=2,
        flight_time_s=10.0,
        seed=7,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


class TestExpansion:
    def test_cartesian_size(self):
        campaign = small_campaign()
        specs = campaign.missions()
        assert len(specs) == 1 * 2 * 2 * 2  # scenario x policy x speed x runs
        assert campaign.size() == len(specs)

    def test_indices_and_spawn_keys_unique(self):
        specs = small_campaign().missions()
        assert [s.index for s in specs] == list(range(len(specs)))
        assert len({s.spawn_key for s in specs}) == len(specs)

    def test_spawn_matches_seed_sequence_spawn(self):
        campaign = small_campaign()
        specs = campaign.missions()
        children = np.random.SeedSequence(campaign.seed).spawn(len(specs))
        for spec, child in zip(specs, children):
            assert spec.seed_sequence().generate_state(4).tolist() == (
                child.generate_state(4).tolist()
            )

    def test_scenario_defaults_fill_empty_axes(self):
        campaign = Campaign(
            name="defaults", scenarios=(get_scenario("corridor-maze"),)
        )
        (spec,) = campaign.missions()
        scenario = get_scenario("corridor-maze")
        assert spec.policy == scenario.policy
        assert spec.speed == scenario.cruise_speed
        assert spec.ssd_width == scenario.ssd_width
        assert spec.flight_time_s == scenario.flight_time_s

    def test_explore_does_not_expand_width_axis(self):
        campaign = small_campaign(kind="explore", ssd_widths=("1.0", "0.75"))
        specs = campaign.missions()
        assert len(specs) == 1 * 2 * 2 * 2  # widths collapsed to one
        assert {s.ssd_width for s in specs} == {"1.0"}

    def test_operating_point_override(self):
        op = DetectorOperatingPoint("custom", fps=2.0, map_score=0.9)
        campaign = small_campaign(
            ssd_widths=("1.0",),
            operating_points=(OperatingPointSpec.from_operating_point("1.0", op),),
        )
        spec = campaign.missions()[0]
        assert spec.operating_point().map_score == 0.9
        # Without an override the paper's numbers apply.
        default = paper_operating_point_spec("1.0").build()
        assert default.fps == 1.6

    def test_validation(self):
        with pytest.raises(SimError):
            small_campaign(n_runs=0)
        with pytest.raises(SimError):
            small_campaign(policies=("teleport",))
        with pytest.raises(SimError):
            small_campaign(speeds=(-0.5,))
        with pytest.raises(SimError):
            small_campaign(kind="swim")
        with pytest.raises(SimError):
            small_campaign(scenarios=())
        with pytest.raises(SimError):
            small_campaign(ssd_widths=("3.0",))
        with pytest.raises(SimError):
            paper_operating_point_spec("3.0")

    def test_bad_scenario_defaults_fail_at_construction(self):
        import dataclasses

        paper = get_scenario("paper-room")
        bad_width = dataclasses.replace(paper, ssd_width="0.3")
        with pytest.raises(SimError, match="default SSD width"):
            Campaign(name="x", scenarios=(bad_width,))
        bad_policy = dataclasses.replace(paper, policy="teleport")
        with pytest.raises(SimError, match="default policy"):
            Campaign(name="x", scenarios=(bad_policy,))
        # Explicit axes override the defaults, so those campaigns are fine.
        Campaign(name="x", scenarios=(bad_width,), ssd_widths=("1.0",))
        Campaign(name="x", scenarios=(bad_policy,), policies=("spiral",))
        # Explore campaigns never touch the detector.
        Campaign(name="x", scenarios=(bad_width,), kind="explore")


class TestHash:
    def test_stable_across_instances(self):
        assert small_campaign().campaign_hash() == small_campaign().campaign_hash()

    def test_sensitive_to_definition(self):
        base = small_campaign().campaign_hash()
        assert small_campaign(seed=8).campaign_hash() != base
        assert small_campaign(n_runs=3).campaign_hash() != base
        assert (
            small_campaign(scenarios=(get_scenario("apartment"),)).campaign_hash()
            != base
        )

    def test_insensitive_to_cosmetic_description(self):
        import dataclasses

        scenario = get_scenario("paper-room")
        reworded = dataclasses.replace(scenario, description="typo fixed")
        assert (
            small_campaign(scenarios=(reworded,)).campaign_hash()
            == small_campaign().campaign_hash()
        )


@pytest.fixture(scope="module")
def tiny_result():
    campaign = Campaign(
        name="tiny",
        scenarios=(get_scenario("paper-room"),),
        policies=("pseudo-random",),
        speeds=(0.5, 1.0),
        n_runs=2,
        flight_time_s=10.0,
        seed=3,
    )
    return run_campaign(campaign)


class TestResultStore:
    def test_columns(self, tiny_result):
        cols = tiny_result.columns()
        assert len(cols["detection_rate"]) == 4
        assert cols["index"] == [0, 1, 2, 3]
        assert set(cols["speed"]) == {0.5, 1.0}
        with pytest.raises(SimError):
            tiny_result.column("nonexistent")

    def test_aggregate_matches_numpy(self, tiny_result):
        agg = tiny_result.aggregate(("policy", "speed"), value="coverage")
        assert set(agg) == {("pseudo-random", 0.5), ("pseudo-random", 1.0)}
        for (policy, speed), stat in agg.items():
            vals = [
                r.coverage
                for r in tiny_result.records
                if r.policy == policy and r.speed == speed
            ]
            assert stat.n == 2
            assert stat.mean == pytest.approx(float(np.mean(vals)))
            assert stat.std == pytest.approx(float(np.std(vals)))

    def test_filter_and_best(self, tiny_result):
        fast = tiny_result.filter(speed=1.0)
        assert len(fast) == 2
        assert all(r.speed == 1.0 for r in fast.records)
        best = tiny_result.best("coverage")
        assert best.coverage == max(tiny_result.column("coverage"))

    def test_filtered_save_does_not_clobber_parent_file(self, tiny_result, tmp_path):
        # Regression: a filtered sub-result derives its own hash, so
        # persisting it cannot overwrite the full campaign's file.
        full_path = tiny_result.save(str(tmp_path))
        sub = tiny_result.filter(speed=1.0)
        assert sub.campaign_hash != tiny_result.campaign_hash
        assert sub.campaign["filter"] == {"speed": 1.0}
        sub_path = sub.save(str(tmp_path))
        assert sub_path != full_path
        assert len(CampaignResult.load(full_path)) == 4
        assert len(CampaignResult.load(sub_path)) == 2

    def test_save_and_load_round_trip(self, tiny_result, tmp_path):
        path = tiny_result.save(str(tmp_path))
        assert tiny_result.campaign_hash[:12] in path
        loaded = CampaignResult.load(path)
        assert loaded.campaign_hash == tiny_result.campaign_hash
        assert loaded.records == tiny_result.records

    def test_save_sanitizes_campaign_name(self, tiny_result, tmp_path):
        hostile = CampaignResult(
            {**tiny_result.campaign, "name": "../night/ly"},
            tiny_result.campaign_hash,
            tiny_result.records,
        )
        path = hostile.save(str(tmp_path))
        assert os.path.dirname(path) == str(tmp_path)
        assert "/" not in os.path.basename(path).replace(str(tmp_path), "")
        assert os.path.exists(path)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(SimError, match="not a campaign result"):
            CampaignResult.load(str(path))

    def test_search_result_round_trip(self, tiny_result):
        record = tiny_result.records[0]
        assert MissionRecord.from_dict(record.to_dict()) == record

    def test_search_records_measure_distance(self, tiny_result):
        # ~0.5 m/s for 10 s: the drone must have actually moved.
        for record in tiny_result.records:
            assert record.distance_flown_m > 1.0

    def test_negative_workers_rejected(self):
        # Worker validation moved into the execution layer; the runner
        # re-exports it for compatibility.
        from repro.errors import ExecError
        from repro.sim.runner import resolve_workers

        with pytest.raises(ExecError):
            resolve_workers(-1)
