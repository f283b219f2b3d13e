"""Result caching across campaigns: hits, misses and invalidation.

Covers the PR's cache contract end-to-end: an identical rerun of
``python -m repro.sim run`` is 100% cache hits with byte-identical
result JSON, while any change to the campaign config, the seed, or the
mission code version busts the affected entries.
"""

import os

import pytest

import repro.sim.runner as runner
from repro.exec import ResultCache
from repro.obs import TraceStore
from repro.sim import Campaign, get_scenario, run_campaign
from repro.sim.__main__ import main
from repro.sim.runner import mission_job


def tiny_campaign(flight_time_s=5.0, seed=3, n_runs=2):
    return Campaign(
        name="cache-test",
        scenarios=(get_scenario("paper-room"),),
        flight_time_s=flight_time_s,
        n_runs=n_runs,
        seed=seed,
    )


class TestCampaignCaching:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = run_campaign(tiny_campaign(), cache=cache)
        assert first.execution.executed == 2
        second = run_campaign(tiny_campaign(), cache=cache)
        assert second.execution.executed == 0
        assert second.execution.cached == 2
        assert second.to_json() == first.to_json()

    def test_no_cache_path_is_bit_identical_to_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fresh = run_campaign(tiny_campaign())
        warm = run_campaign(tiny_campaign(), cache=cache)
        hit = run_campaign(tiny_campaign(), cache=cache)
        assert fresh.to_json() == warm.to_json() == hit.to_json()

    def test_config_change_busts_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_campaign(tiny_campaign(flight_time_s=5.0), cache=cache)
        changed = run_campaign(tiny_campaign(flight_time_s=6.0), cache=cache)
        assert changed.execution.executed == 2

    def test_seed_change_busts_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_campaign(tiny_campaign(seed=3), cache=cache)
        changed = run_campaign(tiny_campaign(seed=4), cache=cache)
        assert changed.execution.executed == 2

    def test_code_version_bump_busts_the_cache(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        run_campaign(tiny_campaign(), cache=cache)
        monkeypatch.setattr(
            runner, "MISSION_JOB_VERSION", "repro.sim.campaign-result/v99"
        )
        bumped = run_campaign(tiny_campaign(), cache=cache)
        assert bumped.execution.executed == 2

    def test_growing_a_campaign_reuses_the_shared_prefix(self, tmp_path):
        # n_runs=2 -> n_runs=3: the two flown missions have identical
        # job hashes (same spawn keys), only the new run executes.
        cache = ResultCache(str(tmp_path))
        run_campaign(tiny_campaign(n_runs=2), cache=cache)
        grown = run_campaign(tiny_campaign(n_runs=3), cache=cache)
        assert grown.execution.executed == 1
        assert grown.execution.cached == 2

    def test_scenario_description_is_cosmetic(self):
        # Rewording a preset's description must not re-key its missions.
        spec = tiny_campaign().missions()[0]
        import dataclasses

        reworded = dataclasses.replace(
            spec,
            scenario=dataclasses.replace(spec.scenario, description="new words"),
        )
        assert mission_job(spec).content_hash() == mission_job(reworded).content_hash()


class TestCliCaching:
    ARGS = [
        "run",
        "--scenario", "paper-room",
        "--runs", "2",
        "--flight-time", "5",
        "--seed", "3",
        "--quiet",
    ]

    def run_cli(self, tmp_path, out_name, extra=()):
        argv = self.ARGS + [
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / out_name),
            *extra,
        ]
        assert main(argv) == 0

    def read_result(self, tmp_path, out_name):
        [name] = os.listdir(tmp_path / out_name)
        with open(tmp_path / out_name / name, "rb") as fh:
            return fh.read()

    def test_rerun_is_100_percent_hits_with_identical_json(self, tmp_path, capsys):
        self.run_cli(tmp_path, "out1")
        first_out = capsys.readouterr().out
        assert "2 executed" in first_out
        self.run_cli(tmp_path, "out2")
        second_out = capsys.readouterr().out
        assert "cache: 2/2 hits, 0 executed" in second_out
        assert "all missions loaded from cache" in second_out
        assert self.read_result(tmp_path, "out1") == self.read_result(tmp_path, "out2")

    def test_no_cache_flag_reexecutes(self, tmp_path, capsys):
        self.run_cli(tmp_path, "out1")
        capsys.readouterr()
        self.run_cli(tmp_path, "out2", extra=["--no-cache"])
        out = capsys.readouterr().out
        assert "cache:" not in out
        assert self.read_result(tmp_path, "out1") == self.read_result(tmp_path, "out2")

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        self.run_cli(tmp_path, "out1")
        capsys.readouterr()
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2 results" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "removed 2 cached results" in out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "0 results" in capsys.readouterr().out

    def test_experiments_cache_clear_removes_traces_too(self, tmp_path, capsys):
        """Both CLIs' `cache clear` go through one implementation."""
        from repro.experiments.__main__ import main as experiments_main

        self.run_cli(tmp_path, "out1", extra=["--record"])
        cache_dir = str(tmp_path / "cache")
        assert TraceStore(cache_dir).stats().traces == 2
        assert experiments_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "2 flight traces" in capsys.readouterr().out
        assert TraceStore(cache_dir).stats().traces == 0
        assert ResultCache(cache_dir).stats().entries == 0
        assert experiments_main(["cache", "evict", "--cache-dir", cache_dir]) == 2


class TestPayloadRoundTrip:
    def test_mission_job_payload_rebuilds_the_spec(self):
        spec = tiny_campaign().missions()[1]
        job = mission_job(spec)
        assert job.seed_entropy == spec.seed_entropy
        assert job.spawn_key == spec.spawn_key
        assert "seed_entropy" not in job.kwargs["spec"]
        record = runner.run_mission_payload(
            job.kwargs["spec"], job.seed_sequence()
        )
        assert record == runner.execute_mission(spec).to_dict()

    def test_executed_and_cached_records_compare_equal(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = run_campaign(tiny_campaign(), cache=cache)
        second = run_campaign(tiny_campaign(), cache=cache)
        assert first.records == second.records
