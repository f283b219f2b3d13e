"""Cache hardening: quarantine, orphans, eviction, concurrency, interrupts."""

import gzip
import json
import multiprocessing
import os

import pytest

from repro.exec import Broker, Executor, JobSpec, ResultCache, TRACE_SUFFIX, Worker
from repro.exec.cache import QUARANTINE_SUFFIX, parse_age, parse_size
from repro.errors import ExecError
from repro.sim import Campaign, get_scenario, run_campaign
from repro.sim.results import CampaignResult
from repro.sim.runner import enqueue_campaign


def sum_job(i=0):
    return JobSpec(
        fn="repro.exec.demo:scaled_sum",
        kwargs={"values": [1.0, float(i)], "factor": 2.0},
        version="v1",
    )


def entry_path_of(cache, job):
    return cache.entry_path(job.content_hash())


def small_campaign(n_runs=2):
    return Campaign(
        name="hardening",
        scenarios=(get_scenario("paper-room"),),
        n_runs=n_runs,
        flight_time_s=5.0,
        seed=0,
    )


class TestParsers:
    def test_parse_size(self):
        assert parse_size("512") == 512
        assert parse_size("2k") == 2_000
        assert parse_size("1M") == 1_000_000
        assert parse_size("1G") == 1_000_000_000

    def test_parse_age(self):
        assert parse_age("90s") == 90.0
        assert parse_age("5m") == 300.0
        assert parse_age("2h") == 7200.0
        assert parse_age("1d") == 86400.0

    @pytest.mark.parametrize("bad", ["", "x", "-1k", "3w", "1.5.2h"])
    def test_bad_inputs_rejected(self, bad):
        with pytest.raises(ExecError):
            parse_age(bad)
        with pytest.raises(ExecError):
            parse_size(bad.replace("h", "k"))


class TestQuarantine:
    def test_unparseable_entry_quarantined_on_read(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = sum_job()
        cache.put(job, 4.0)
        path = entry_path_of(cache, job)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\x00 this is not json")
        value, hit = cache.get(job)
        assert not hit and value is None
        assert not os.path.exists(path)
        assert os.path.exists(path + QUARANTINE_SUFFIX)
        assert cache.quarantines == 1
        stats = cache.stats()
        assert stats.quarantined == 1 and stats.entries == 0
        # A second lookup is a plain miss, not a second quarantine.
        _, hit = cache.get(job)
        assert not hit and cache.quarantines == 1

    def test_non_dict_entry_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = sum_job()
        cache.put(job, 4.0)
        path = entry_path_of(cache, job)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([1, 2, 3], fh)
        _, hit = cache.get(job)
        assert not hit and cache.quarantines == 1

    def test_schema_mismatch_is_a_miss_not_a_quarantine(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = sum_job()
        cache.put(job, 4.0)
        path = entry_path_of(cache, job)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["schema"] = "repro.exec.result/v0"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        _, hit = cache.get(job)
        assert not hit
        assert cache.quarantines == 0 and os.path.exists(path)

    def test_foreign_job_entry_is_a_miss_not_a_quarantine(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = sum_job()
        cache.put(job, 4.0)
        path = entry_path_of(cache, job)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["job"]["kwargs"]["factor"] = 99.0  # hash collision simulation
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        _, hit = cache.get(job)
        assert not hit
        assert cache.quarantines == 0 and os.path.exists(path)

    def test_clear_removes_quarantined_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(sum_job(), 4.0)
        path = entry_path_of(cache, sum_job())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("garbage")
        cache.get(sum_job())
        assert cache.stats().quarantined == 1
        removed = cache.clear()
        assert removed == 1
        assert cache.stats() == (0, 0, (), 0, 0)


class TestOrphans:
    def test_orphans_counted_and_cleared(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(sum_job(), 4.0)
        shard = os.path.dirname(entry_path_of(cache, sum_job()))
        orphan = os.path.join(shard, ".tmp-abandoned")
        with open(orphan, "w", encoding="utf-8") as fh:
            fh.write("{partial")
        stats = cache.stats()
        assert stats.entries == 1 and stats.orphans == 1
        cache.clear()
        assert not os.path.exists(orphan)
        assert cache.stats().orphans == 0

    def test_trace_store_temps_are_not_cache_orphans(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(sum_job(), 4.0)
        shard = os.path.dirname(entry_path_of(cache, sum_job()))
        with open(os.path.join(shard, ".tmp-live.gz"), "wb") as fh:
            fh.write(b"trace-store temp")
        assert cache.stats().orphans == 0


class TestEviction:
    def _sized_cache(self, tmp_path):
        """Three entries with controlled mtimes, oldest first."""
        cache = ResultCache(str(tmp_path))
        jobs = [sum_job(i) for i in range(3)]
        for i, job in enumerate(jobs):
            cache.put(job, float(i))
            os.utime(entry_path_of(cache, job), (1_000.0 * (i + 1),) * 2)
        return cache, jobs

    def test_evict_lru_order_honors_byte_budget(self, tmp_path):
        cache, jobs = self._sized_cache(tmp_path)
        entry_bytes = os.path.getsize(entry_path_of(cache, jobs[0]))
        report = cache.evict(max_bytes=2 * entry_bytes, now=10_000.0)
        assert report.removed_entries == 1
        assert report.remaining_bytes <= 2 * entry_bytes
        # Oldest entry went; the two newest survive.
        assert cache.get(jobs[0]) == (None, False)
        assert cache.get(jobs[1])[1] and cache.get(jobs[2])[1]

    def test_evict_max_age(self, tmp_path):
        cache, jobs = self._sized_cache(tmp_path)
        # now=3500: entries aged 2500, 1500, 500 — cut at 1000s.
        report = cache.evict(max_age_s=1_000.0, now=3_500.0)
        assert report.removed_entries == 2
        assert not cache.get(jobs[0])[1] and not cache.get(jobs[1])[1]
        assert cache.get(jobs[2])[1]

    def test_evict_takes_paired_traces(self, tmp_path):
        cache, jobs = self._sized_cache(tmp_path)
        traces = []
        for job in jobs:
            trace = ResultCache.trace_path_for(entry_path_of(cache, job))
            assert trace.endswith(TRACE_SUFFIX)
            with gzip.open(trace, "wt", encoding="utf-8") as fh:
                fh.write('{"fake": "trace"}')
            traces.append(trace)
        os.utime(entry_path_of(cache, jobs[0]), (1_000.0, 1_000.0))
        report = cache.evict(max_bytes=0, now=10_000.0)
        assert report.removed_entries == 3 and report.removed_traces == 3
        assert not any(os.path.exists(t) for t in traces)
        assert cache.stats().total_bytes == 0

    def test_evict_removes_junk_first(self, tmp_path):
        cache, jobs = self._sized_cache(tmp_path)
        shard = os.path.dirname(entry_path_of(cache, jobs[0]))
        orphan = os.path.join(shard, ".tmp-junk")
        with open(orphan, "w", encoding="utf-8") as fh:
            fh.write("x" * 50)
        total = cache.stats().total_bytes
        report = cache.evict(max_bytes=total * 10, now=10_000.0)
        assert report.removed_junk == 1 and report.removed_entries == 0
        assert not os.path.exists(orphan)

    def test_cache_hit_refreshes_mtime(self, tmp_path):
        cache, jobs = self._sized_cache(tmp_path)
        path = entry_path_of(cache, jobs[0])
        stale = os.path.getmtime(path)
        cache.get(jobs[0])
        assert os.path.getmtime(path) > stale
        # The refreshed entry now survives an eviction that takes jobs[1].
        entry_bytes = os.path.getsize(path)
        report = cache.evict(max_bytes=2 * entry_bytes, now=10_000.0)
        assert report.removed_entries == 1
        assert cache.get(jobs[0])[1] and not cache.get(jobs[1])[1]

    def test_evict_requires_a_bound(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ExecError, match="at least one"):
            cache.evict()


def _concurrent_writer(root, n_jobs, seed):
    cache = ResultCache(root)
    order = list(range(n_jobs))
    # Deterministic per-process shuffle so writers collide on the
    # same hashes in different orders.
    for k in range(len(order) - 1, 0, -1):
        j = (seed * 2654435761 + k) % (k + 1)
        order[k], order[j] = order[j], order[k]
    for i in order:
        job = sum_job(i)
        cache.put(job, 2.0 + 2.0 * i)
        value, hit = cache.get(job)
        assert hit and value == 2.0 + 2.0 * i, (i, value, hit)


class TestConcurrentWriters:
    def test_parallel_writers_leave_a_clean_cache(self, tmp_path):
        n_jobs, n_procs = 20, 4
        procs = [
            multiprocessing.Process(
                target=_concurrent_writer, args=(str(tmp_path), n_jobs, seed)
            )
            for seed in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        cache = ResultCache(str(tmp_path))
        stats = cache.stats()
        assert stats.entries == n_jobs
        assert stats.orphans == 0 and stats.quarantined == 0
        for i in range(n_jobs):
            value, hit = cache.get(sum_job(i))
            assert hit and value == 2.0 + 2.0 * i


class TestInterruptedCampaign:
    def test_keyboard_interrupt_leaves_no_torn_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        campaign = small_campaign(n_runs=2)

        done = []

        def interrupt_after_first(done_n, total, job, payload, cached):
            done.append(job.label)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                campaign, workers=0, cache=cache, progress=interrupt_after_first
            )
        assert len(done) == 1
        stats = cache.stats()
        assert stats.entries == 1  # the completed mission landed
        assert stats.orphans == 0 and stats.quarantined == 0

        # The rerun reuses the survivor and is byte-identical to a
        # fresh-cache run of the same campaign.
        resumed = run_campaign(campaign, workers=0, cache=cache)
        assert resumed.execution.cached == 1
        assert resumed.execution.executed == 1
        fresh = run_campaign(
            campaign, workers=0, cache=ResultCache(str(tmp_path / "cache2"))
        )
        assert resumed.to_json() == fresh.to_json()


class Boom(Exception):
    """Deliberate failure raised from inside user progress callbacks."""


class TestRaisingProgressCallbacks:
    """A user callback that raises must abort the *call*, never the
    *state*: the execution report describes the aborted run, finished
    work stays durably cached, and queued jobs are not lost."""

    def test_report_reflects_the_aborted_run_not_the_previous_one(self, tmp_path):
        ex = Executor(cache=ResultCache(str(tmp_path / "c")))
        ex.run([sum_job(i) for i in range(3)])
        assert ex.last_report.total == 3

        calls = []

        def boom(done, total, job, value, cached):
            calls.append(done)
            raise Boom

        with pytest.raises(Boom):
            ex.run([sum_job(i) for i in range(5, 10)], progress=boom)
        assert calls == [1]
        report = ex.last_report
        assert report.total == 5  # this run, not the stale 3-job one
        assert report.executed == 1  # exactly one job finished pre-abort
        assert report.cached == 0
        assert report.failed == 0

    def test_finished_work_survives_an_aborted_run(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        jobs = [sum_job(i) for i in range(4)]

        def boom(done, total, job, value, cached):
            if done == 2:
                raise Boom

        with pytest.raises(Boom):
            Executor(cache=cache).run(jobs, progress=boom)
        # cache.put precedes the callback: both finished jobs landed
        # durably, and nothing half-written needs quarantining
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.orphans == 0 and stats.quarantined == 0
        rerun = Executor(cache=cache)
        assert rerun.run(jobs) == [(1.0 + i) * 2.0 for i in range(4)]
        assert rerun.last_report.cached == 2
        assert rerun.last_report.executed == 2

    def test_pooled_run_tears_down_workers_and_rerun_completes(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        jobs = [sum_job(i) for i in range(6)]

        def boom(done, total, job, value, cached):
            raise Boom

        ex = Executor(workers=2, cache=cache)
        with pytest.raises(Boom):
            ex.run(jobs, progress=boom)
        assert ex.last_report.total == 6
        assert cache.stats().quarantined == 0
        results = Executor(workers=2, cache=cache).run(jobs)
        assert results == [(1.0 + i) * 2.0 for i in range(6)]

    def test_campaign_progress_abort_loses_no_missions(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        campaign = small_campaign()

        def boom(done, total, job, payload, cached):
            raise Boom

        with pytest.raises(Boom):
            run_campaign(campaign, cache=cache, progress=boom)
        clean = run_campaign(campaign, cache=cache)
        assert clean.execution.cached >= 1  # pre-abort missions reused
        fresh = run_campaign(campaign)
        assert clean.to_json() == fresh.to_json()

    def test_broker_drain_progress_abort_preserves_queue_state(self, tmp_path):
        campaign = small_campaign()
        with Broker(str(tmp_path / "queue.db")) as broker:
            enqueue_campaign(campaign, broker)
            Worker(broker, worker_id="w", poll_s=0.01, exit_when_drained=True).run()
            done_before = broker.counts().done
            assert done_before == len(campaign.missions())

            def boom(done, total, job, payload, cached):
                raise Boom

            with pytest.raises(Boom):
                run_campaign(
                    campaign, broker=broker, progress=boom, wait_timeout_s=30.0
                )
            # the abort is collector-side only: the queue lost nothing
            # and a clean collection still matches a serial run exactly
            assert broker.counts().done == done_before
            assert broker.stats()["completions"] == done_before
            collected = run_campaign(campaign, broker=broker, wait_timeout_s=30.0)
        assert collected.to_json() == run_campaign(campaign).to_json()


class TestCampaignFailures:
    def test_failures_roundtrip_through_result_files(self, tmp_path):
        campaign = small_campaign(n_runs=1)
        result = run_campaign(campaign, workers=0)
        failure = {
            "schema": "repro.exec.failure/v1",
            "index": 7,
            "job_hash": "ab" * 32,
            "label": "mission-7",
            "fn": "repro.sim.runner:run_mission_payload",
            "error_type": "ExecError",
            "message": "zap",
            "attempts": 2,
            "transient": False,
            "timed_out": False,
            "worker_crash": False,
        }
        broken = CampaignResult(
            campaign=result.campaign,
            campaign_hash=result.campaign_hash,
            records=result.records,
            execution=result.execution,
            failures=[failure],
        )
        path = broken.save(str(tmp_path))
        loaded = CampaignResult.load(path)
        assert list(loaded.failures) == [failure]
        # Clean results do not even carry the key: old files stay valid
        # and new clean files stay byte-identical to pre-failure ones.
        assert "failures" not in result.to_dict()
        assert list(result.failures) == []
