"""Integration tests: recording, replay, and the determinism contract.

The pinned hashes at the bottom are the regression tripwire for the
"recording is free" guarantee: a ``record=False`` campaign must keep
producing byte-identical result JSON and unchanged job hashes across
observability changes. If a pin breaks, either the mission semantics
changed (bump ``RESULT_SCHEMA``) or recording leaked into the flight --
the second one is a bug, not a schema event.
"""

import hashlib
import json

import pytest

from repro.errors import ObsError
from repro.exec import ResultCache, canonical_json, json_roundtrip
from repro.obs import TraceStore
from repro.obs.replay import (
    campaign_hashes,
    mission_spec_from_entry,
    replay_mission,
    replay_target_hashes,
)
from repro.sim import Campaign, get_scenario, run_campaign
from repro.sim.generators import GeneratedSpec
from repro.sim.runner import fly_mission, mission_job

#: Frozen pins: the two mission-job hashes and the result-JSON digest
#: of PIN_CAMPAIGN. Re-derived exactly once per mission-semantics
#: generation (tracked by ``schemas.MISSION_JOB_VERSION``); current
#: values belong to ``repro.sim.mission-job/v3``, the per-sensor
#: seed-stream refactor that re-drew every mission's noise tape.
PIN_JOB_HASHES = (
    "f98f104433070e82e15dc7a29f22eea6c6966d1976aaff03fd3674751449f84f",
    "16cf31415019f7a4f233721b39aa7809b8da2118d7f7bcf1e277ab5fb55c5f6d",
)
PIN_RESULT_SHA256 = (
    "9c8ba826218acce7f8ac2043c8cd72b678fc911bb884ce36924dfd8c4493ce34"
)
#: Result-JSON digest of the explore campaign: pins the zeroed search
#: columns (``detection_rate``, ``frames_processed``, ``n_objects``,
#: ``events``) of an exploration record.
PIN_EXPLORE_RESULT_SHA256 = (
    "6022cc6b2de43777f51db5ee1d1cebd38230356c39f03b9efb7ffd0234a85a0b"
)
PIN_MAZE_JOB_HASH = (
    "8060b6e313f3088647b752de09d502d9f989886a08cbb054cafdb82f2b4ea980"
)
#: Telemetry fingerprints (:meth:`MissionTrace.fingerprint`) of the
#: first recorded mission of PIN_CAMPAIGN (search) and of the explore
#: campaign. ``replay --verify`` only compares two flights of the same
#: code, so these pins are what catches a telemetry change that would
#: break traces users have already recorded.
PIN_SEARCH_TRACE_FINGERPRINT = (
    "d67e2f4764f36ac72dc54b6a6dc443ca5ec2bdb58ae608f3e85c5715735c43c3"
)
PIN_EXPLORE_TRACE_FINGERPRINT = (
    "f0dc9d5abb25ddd353a513e44641191547f1db048e8d11f47a41f1a4e0cf096a"
)
#: Digests of the same traces' ``final`` summaries
#: (``canonical_json(trace.final)``), which the telemetry fingerprint
#: does not cover.
PIN_SEARCH_TRACE_FINAL = (
    "dee8eb3c6d61817f36df034e596dc53a520fa9067040f48d3e4f6f2a515a7cf7"
)
PIN_EXPLORE_TRACE_FINAL = (
    "02120cb6bba1fc56fc51fc2012c121ca794c29dc3a2d83c030f8d7ff634be9d7"
)


def pin_campaign():
    return Campaign(
        name="obs-pin",
        scenarios=(get_scenario("paper-room"),),
        n_runs=2,
        flight_time_s=10.0,
        seed=11,
    )


def explore_campaign():
    return Campaign(
        name="obs-explore",
        scenarios=(get_scenario("paper-room"),),
        flight_time_s=6.0,
        seed=4,
        kind="explore",
    )


class TestRecordingIsFree:
    def test_record_flag_never_changes_the_record(self):
        spec = next(iter(pin_campaign().missions()))
        plain, no_trace = fly_mission(spec, record=False)
        recorded, trace = fly_mission(spec, record=True)
        assert no_trace is None
        assert trace is not None and trace.n_ticks > 0
        assert recorded.to_dict() == plain.to_dict()

    @pytest.mark.parametrize(
        "campaign, phases",
        [
            (pin_campaign, {"ranger", "policy", "step", "mocap", "camera", "detect"}),
            (explore_campaign, {"ranger", "policy", "step", "mocap"}),
        ],
        ids=["search", "explore"],
    )
    def test_trace_times_each_tick_phase(self, campaign, phases):
        spec = next(iter(campaign().missions()))
        _, trace = fly_mission(spec, record=True)
        timings = trace.timings
        assert set(timings["phases"]) == phases
        assert all(seconds >= 0.0 for seconds in timings["phases"].values())
        assert timings["ticks"] == trace.n_ticks == round(spec.flight_time_s * 50)

    def test_trace_side_channel_keeps_job_hash(self, tmp_path):
        spec = next(iter(pin_campaign().missions()))
        bare = mission_job(spec)
        traced = mission_job(spec, trace_dir=str(tmp_path))
        assert traced.content_hash() == bare.content_hash()
        assert traced.extra["trace_key"] == bare.content_hash()

    def test_recorded_campaign_result_is_byte_identical(self, tmp_path):
        campaign = pin_campaign()
        plain = run_campaign(campaign)
        cache = ResultCache(str(tmp_path))
        recorded = run_campaign(campaign, cache=cache, record=True)
        assert recorded.to_json(indent=1) == plain.to_json(indent=1)
        store = TraceStore(str(tmp_path))
        assert store.stats().traces == len(plain.records)

    def test_missing_trace_triggers_exactly_one_refly(self, tmp_path):
        campaign = pin_campaign()
        cache = ResultCache(str(tmp_path))
        first = run_campaign(campaign, cache=cache, record=True)
        assert first.execution.executed == 2
        store = TraceStore(str(tmp_path))
        victim = campaign_hashes(first)[0]
        # drop one trace by hand; the result cache entry stays
        import os

        os.remove(store.path(victim))
        again = run_campaign(campaign, cache=cache, record=True)
        assert again.execution.executed == 1
        assert again.execution.cached == 1
        assert again.to_json(indent=1) == first.to_json(indent=1)
        assert store.has(victim)


class TestReplay:
    @pytest.fixture()
    def recorded(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = run_campaign(pin_campaign(), cache=cache, record=True)
        return str(tmp_path), result

    def test_replay_without_verify_cross_checks(self, recorded):
        cache_dir, result = recorded
        for h in campaign_hashes(result):
            outcome = replay_mission(h, cache_dir)
            assert outcome.verified is None
            assert outcome.kind == "search"
            assert outcome.n_ticks > 0
            assert "consistent" in outcome.summary()

    def test_replay_verify_is_bit_identical(self, recorded):
        cache_dir, result = recorded
        h = campaign_hashes(result)[0]
        outcome = replay_mission(h, cache_dir, verify=True)
        assert outcome.verified is True
        assert "bit-identical" in outcome.summary()

    def test_spec_reconstruction_roundtrips(self, recorded):
        cache_dir, result = recorded
        h = campaign_hashes(result)[0]
        entry = ResultCache(cache_dir).load_entry(h)
        spec = mission_spec_from_entry(entry)
        assert mission_job(spec).content_hash() == h

    def test_target_resolution(self, recorded, tmp_path):
        cache_dir, result = recorded
        hashes = campaign_hashes(result)
        out = result.save(str(tmp_path / "results"))
        assert replay_target_hashes(out, cache_dir) == hashes
        assert replay_target_hashes(hashes[0][:10], cache_dir) == [hashes[0]]
        with pytest.raises(ObsError, match="no recorded trace"):
            replay_target_hashes("ffff", cache_dir)

    def test_missing_cache_entry_is_an_error(self, recorded):
        cache_dir, result = recorded
        h = campaign_hashes(result)[0]
        ResultCache(cache_dir).clear()
        with pytest.raises(ObsError, match="no matching result cache"):
            replay_mission(h, cache_dir)

    def test_tampered_result_detected(self, recorded):
        cache_dir, result = recorded
        h = campaign_hashes(result)[0]
        cache = ResultCache(cache_dir)
        path = cache.entry_path(h)
        entry = json.loads(open(path).read())
        entry["result"]["coverage"] += 0.25
        with open(path, "w") as fh:
            json.dump(entry, fh)
        with pytest.raises(ObsError, match="trace/result mismatch"):
            replay_mission(h, cache_dir)

    def test_explore_missions_replay_too(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = run_campaign(explore_campaign(), cache=cache, record=True)
        h = campaign_hashes(result)[0]
        outcome = replay_mission(h, str(tmp_path), verify=True)
        assert outcome.kind == "explore"
        assert outcome.verified is True


class TestPrePRPins:
    """record=False behaviour must be frozen relative to the seed."""

    def test_job_hashes_unchanged(self):
        hashes = tuple(
            mission_job(spec).content_hash()
            for spec in pin_campaign().missions()
        )
        assert hashes == PIN_JOB_HASHES

    @pytest.mark.parametrize(
        "campaign, pin, fleet_block",
        [
            (pin_campaign, PIN_RESULT_SHA256, None),
            (pin_campaign, PIN_RESULT_SHA256, 8),
            (explore_campaign, PIN_EXPLORE_RESULT_SHA256, None),
            (explore_campaign, PIN_EXPLORE_RESULT_SHA256, 8),
        ],
        ids=["search-serial", "search-fleet", "explore-serial", "explore-fleet"],
    )
    def test_result_json_unchanged(self, campaign, pin, fleet_block):
        result = run_campaign(campaign(), fleet_block=fleet_block)
        digest = hashlib.sha256(result.to_json(indent=1).encode()).hexdigest()
        assert digest == pin

    def test_generated_scenario_hash_unchanged(self):
        campaign = Campaign(
            name="obs-pin-maze",
            generated=(
                GeneratedSpec.create(
                    "perfect-maze", {"cols": 5.0, "rows": 4.0}, seed=2
                ),
            ),
            flight_time_s=8.0,
            seed=3,
            kind="explore",
        )
        spec = next(iter(campaign.missions()))
        assert mission_job(spec).content_hash() == PIN_MAZE_JOB_HASH

    @pytest.mark.parametrize(
        "campaign, pin, final_pin",
        [
            (pin_campaign, PIN_SEARCH_TRACE_FINGERPRINT, PIN_SEARCH_TRACE_FINAL),
            (explore_campaign, PIN_EXPLORE_TRACE_FINGERPRINT, PIN_EXPLORE_TRACE_FINAL),
        ],
        ids=["search", "explore"],
    )
    def test_trace_fingerprint_unchanged(self, campaign, pin, final_pin):
        spec = next(iter(campaign().missions()))
        _, trace = fly_mission(spec, record=True)
        assert trace.fingerprint() == pin
        final = canonical_json(trace.final).encode()
        assert hashlib.sha256(final).hexdigest() == final_pin

    def test_campaign_definition_roundtrips(self):
        campaign = pin_campaign()
        again = Campaign.from_dict(json_roundtrip(campaign.to_dict()))
        assert again.campaign_hash() == campaign.campaign_hash()
        assert [mission_job(s).content_hash() for s in again.missions()] == [
            mission_job(s).content_hash() for s in campaign.missions()
        ]
