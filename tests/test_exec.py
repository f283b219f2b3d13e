"""Unit tests of the execution layer: JobSpec, ResultCache, Executor."""

import json
import os

import numpy as np
import pytest

from repro.errors import ExecError
from repro.exec import (
    CACHE_SCHEMA,
    Batch,
    Executor,
    JobFailure,
    JobSpec,
    ResultCache,
    canonical_value,
    default_cache_dir,
    json_roundtrip,
    resolve_workers,
)
from repro.exec.demo import run_each, scaled_sum, seeded_normals


def demo_job(n=2, entropy=5, key=(0,), version="v1", label=""):
    return JobSpec(
        fn="repro.exec.demo:seeded_normals",
        kwargs={"n": n},
        seed_entropy=entropy,
        spawn_key=key,
        version=version,
        label=label,
    )


class TestCanonicalValue:
    def test_plain_data_passes_through(self):
        assert canonical_value({"a": 1, "b": [1.5, None, True, "x"]}) == {
            "a": 1,
            "b": [1.5, None, True, "x"],
        }

    def test_tuples_become_lists(self):
        assert canonical_value((1, (2, 3))) == [1, [2, 3]]

    def test_numpy_scalars_become_python(self):
        out = canonical_value({"f": np.float64(0.5), "i": np.int64(3)})
        assert out == {"f": 0.5, "i": 3}
        assert type(out["f"]) is float and type(out["i"]) is int

    def test_rejects_live_objects(self):
        with pytest.raises(ExecError, match="no canonical JSON form"):
            canonical_value({"arr": np.zeros(3)})

    def test_rejects_non_string_keys(self):
        with pytest.raises(ExecError, match="keys must be strings"):
            canonical_value({1.0: "x"})


class TestJobSpec:
    def test_hash_is_stable_and_label_free(self):
        a = demo_job(label="one")
        b = demo_job(label="two")
        assert a.content_hash() == b.content_hash()

    def test_hash_covers_kwargs_seed_and_version(self):
        base = demo_job().content_hash()
        assert demo_job(n=3).content_hash() != base
        assert demo_job(entropy=6).content_hash() != base
        assert demo_job(key=(1,)).content_hash() != base
        assert demo_job(version="v2").content_hash() != base

    def test_kwargs_canonicalized_at_construction(self):
        job = JobSpec(fn="repro.exec.demo:scaled_sum",
                      kwargs={"values": (1, 2), "factor": np.float64(2.0)})
        assert job.kwargs == {"values": [1, 2], "factor": 2.0}

    def test_roundtrips_through_dict(self):
        job = demo_job()
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_bad_fn_rejected(self):
        with pytest.raises(ExecError):
            JobSpec(fn="")
        with pytest.raises(ExecError):
            JobSpec(fn="nodots")

    def test_resolve_errors(self):
        with pytest.raises(ExecError, match="cannot import"):
            JobSpec(fn="repro.no_such_module:f").resolve()
        with pytest.raises(ExecError, match="no attribute"):
            JobSpec(fn="repro.exec.demo:no_such_fn").resolve()
        with pytest.raises(ExecError, match="not callable"):
            JobSpec(fn="repro.exec.cache:CACHE_SCHEMA").resolve()

    def test_legacy_dotted_fn_form_resolves(self):
        job = JobSpec(fn="repro.exec.demo.scaled_sum", kwargs={"values": [2.0]})
        assert job.run() == 2.0

    def test_run_injects_seed_provenance(self):
        job = demo_job(n=4, entropy=9, key=(2,))
        expected = seeded_normals(4, np.random.SeedSequence(9, spawn_key=(2,)))
        assert job.run() == expected

    def test_unseeded_job_gets_no_seed_kwarg(self):
        job = JobSpec(fn="repro.exec.demo:scaled_sum",
                      kwargs={"values": [1.0, 2.0], "factor": 3.0})
        assert job.run() == scaled_sum([1.0, 2.0], 3.0) == 9.0


class TestResultCache:
    def test_miss_then_put_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = demo_job()
        value, hit = cache.get(job)
        assert not hit
        cache.put(job, job.run())
        value, hit = cache.get(job)
        assert hit and value == json_roundtrip(job.run())
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_entry_file_layout_is_hash_sharded(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = demo_job()
        path = cache.put(job, 1.0)
        h = job.content_hash()
        assert path == os.path.join(str(tmp_path), h[:2], f"{h}.json")
        assert os.path.exists(path)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = demo_job()
        path = cache.put(job, 1.0)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(job) == (None, False)

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = demo_job()
        path = cache.put(job, 1.0)
        with open(path) as fh:
            data = json.load(fh)
        data["schema"] = "repro.exec.result/v0"
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cache.get(job) == (None, False)

    def test_foreign_job_identity_reads_as_miss(self, tmp_path):
        # A file at the right path but describing a different job (hash
        # collision / hand-edit) must not be served.
        cache = ResultCache(str(tmp_path))
        job = demo_job()
        path = cache.put(job, 1.0)
        with open(path) as fh:
            data = json.load(fh)
        data["job"]["kwargs"]["n"] = 99
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cache.get(job) == (None, False)

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(3):
            cache.put(demo_job(key=(i,)), [float(i)])
        stats = cache.stats()
        assert stats.entries == 3 and stats.total_bytes > 0
        assert cache.clear() == 3
        assert cache.stats() == (0, 0, (), 0, 0)

    def test_cache_files_are_deterministic(self, tmp_path):
        job = demo_job()
        a = ResultCache(str(tmp_path / "a"))
        b = ResultCache(str(tmp_path / "b"))
        pa = a.put(job, job.run())
        pb = b.put(job, job.run())
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()

    def test_default_cache_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir() == ".repro-cache"


class TestExecutor:
    def jobs(self, n=4):
        return [demo_job(key=(i,)) for i in range(n)]

    def test_results_in_job_order(self):
        results = Executor().run(self.jobs())
        expected = [
            seeded_normals(2, np.random.SeedSequence(5, spawn_key=(i,)))
            for i in range(4)
        ]
        assert results == expected

    def test_pooled_equals_serial(self):
        jobs = self.jobs(6)
        serial = Executor(workers=None).run(jobs)
        pooled = Executor(workers=2).run(jobs)
        assert serial == pooled

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ExecError):
            resolve_workers(-2)

    def test_duplicate_jobs_execute_once(self, tmp_path):
        job = demo_job()
        executor = Executor()
        results = executor.run([job, job, job])
        assert results[0] == results[1] == results[2]
        report = executor.last_report
        assert report.total == 3 and report.executed == 1 and report.cached == 2

    def test_error_propagates_serial_and_pooled(self):
        bad = JobSpec(fn="repro.exec.demo:always_fails", kwargs={"message": "nope"})
        with pytest.raises(ExecError, match="nope"):
            Executor().run([bad])
        with pytest.raises(ExecError, match="nope"):
            Executor(workers=2).run([bad, demo_job()])

    def test_cache_makes_second_run_execution_free(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        jobs = self.jobs()
        first = Executor(cache=cache)
        r1 = first.run(jobs)
        assert first.last_report.executed == 4
        second = Executor(cache=cache)
        r2 = second.run(jobs)
        assert r1 == r2
        assert second.last_report.executed == 0
        assert second.last_report.cached == 4

    def test_progress_fires_once_per_job(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        jobs = self.jobs(3)
        Executor(cache=cache).run(jobs[:2])
        events = []
        Executor(cache=cache).run(
            jobs, progress=lambda done, total, job, result, cached: events.append(
                (done, total, cached)
            )
        )
        assert [e[0] for e in events] == [1, 2, 3]
        assert all(e[1] == 3 for e in events)
        # two cache hits first, then the fresh execution
        assert [e[2] for e in events] == [True, True, False]

    def test_report_summary_reads_well(self):
        executor = Executor()
        executor.run(self.jobs(2))
        assert "2 jobs: 0 cached, 2 executed" in executor.last_report.summary()


class TestExtraSideChannel:
    def test_extra_excluded_from_hash_and_dict(self):
        plain = demo_job()
        extra = JobSpec(
            fn="repro.exec.demo:seeded_normals",
            kwargs={"n": 2},
            seed_entropy=5,
            spawn_key=(0,),
            version="v1",
            extra={"note": "side-channel"},
        )
        assert extra.content_hash() == plain.content_hash()
        assert extra.to_dict() == plain.to_dict()

    def test_extra_keys_may_not_shadow_kwargs(self):
        with pytest.raises(ExecError, match="shadow"):
            JobSpec(
                fn="repro.exec.demo:scaled_sum",
                kwargs={"values": [1.0], "factor": 2.0},
                extra={"factor": 3.0},
            )

    def test_extra_is_passed_to_the_callable(self):
        # scaled_sum(values, factor): feed factor through extra only.
        job = JobSpec(
            fn="repro.exec.demo:scaled_sum",
            kwargs={"values": [1.0, 2.0]},
            extra={"factor": 3.0},
        )
        assert job.run() == 9.0


class TestRefreshAndTimings:
    def test_refresh_forces_reexecution_and_restores_byte_identical(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = demo_job()
        Executor(cache=cache).run([job])
        entry = cache.entry_path(job.content_hash())
        with open(entry, "rb") as fh:
            before = fh.read()
        refreshed = Executor(cache=cache)
        refreshed.run([job], refresh=lambda j: True)
        assert refreshed.last_report.executed == 1
        with open(entry, "rb") as fh:
            assert fh.read() == before

    def test_refresh_false_still_hits_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = demo_job()
        Executor(cache=cache).run([job])
        executor = Executor(cache=cache)
        executor.run([job], refresh=lambda j: False)
        assert executor.last_report.executed == 0

    def test_report_carries_job_timings(self):
        executor = Executor()
        executor.run([demo_job(key=(i,), label=f"job {i}") for i in range(3)])
        report = executor.last_report
        assert report.job_min_s <= report.job_mean_s <= report.job_max_s
        assert report.slowest_label.startswith("job ")
        assert "min/mean/max" in report.timings_summary()
        assert report.slowest_label in report.timings_summary()

    def test_timings_summary_empty_without_executions(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        Executor(cache=cache).run([demo_job()])
        executor = Executor(cache=cache)
        executor.run([demo_job()])
        assert executor.last_report.timings_summary() == ""


def sum_job(i, label=""):
    return JobSpec(
        fn="repro.exec.demo:scaled_sum",
        kwargs={"values": [1.0, float(i)], "factor": 2.0},
        version="v1",
        label=label,
    )


class TestBatchedBackend:
    """Jobs sharing a key run in blocks, one call per block."""

    def counting_batch(self, size, blocks, key=lambda job: job.fn):
        def run(jobs):
            blocks.append(len(jobs))
            return run_each(jobs)

        return Batch(size, key=key, run=run)

    def test_blocks_fill_by_key_and_results_match_serial(self, tmp_path):
        jobs = [sum_job(i, label=f"sum {i}") for i in range(5)]
        blocks = []
        cache = ResultCache(str(tmp_path))
        executor = Executor(cache=cache, batch=self.counting_batch(2, blocks))
        assert executor.run(jobs) == Executor().run(jobs)
        assert blocks == [2, 2, 1]
        # Each member is its own job: one cache entry apiece.
        assert cache.stats().entries == 5
        assert Executor(cache=cache).run(jobs) == executor.run(jobs)

    def test_members_share_the_amortized_block_time(self):
        executor = Executor(batch=self.counting_batch(3, []))
        executor.run([sum_job(i, label=f"sum {i}") for i in range(3)])
        report = executor.last_report
        assert report.executed == 3
        assert report.job_min_s == report.job_mean_s == report.job_max_s
        assert report.slowest_label.startswith("sum ")

    def test_raising_block_falls_back_to_one_member_at_a_time(self):
        bad = JobSpec(fn="repro.exec.demo:always_fails", label="bad")
        jobs = [sum_job(0), bad, sum_job(1)]
        blocks = []
        batch = self.counting_batch(3, blocks, key=lambda job: 0)
        executor = Executor(batch=batch, keep_going=True)
        results = executor.run(jobs)
        assert blocks == [3]
        assert results[0] == scaled_sum([1.0, 0.0], 2.0)
        assert results[2] == scaled_sum([1.0, 1.0], 2.0)
        assert isinstance(results[1], JobFailure)
        assert results[1].label == "bad"
        report = executor.last_report
        assert (report.executed, report.failed) == (2, 1)

    @pytest.mark.parametrize("kwargs", [{"workers": 2}, {"broker": object()}])
    def test_batch_runs_in_process_only(self, kwargs):
        with pytest.raises(ExecError, match="in-process"):
            Executor(batch=Batch(2, key=lambda job: 0, run=run_each), **kwargs)


class TestCacheInventory:
    def test_stats_breaks_entries_down_by_version(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(demo_job(key=(0,), version="a/v1"), 1.0)
        cache.put(demo_job(key=(1,), version="a/v1"), 2.0)
        cache.put(demo_job(key=(2,), version="b/v1"), 3.0)
        stats = cache.stats()
        assert stats.entries == 3
        by_version = {v: (n, b) for v, n, b in stats.by_version}
        assert by_version["a/v1"][0] == 2
        assert by_version["b/v1"][0] == 1
        assert sum(b for _, b in by_version.values()) == stats.total_bytes

    def test_load_entry_returns_raw_document(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = demo_job()
        cache.put(job, [4.0])
        entry = cache.load_entry(job.content_hash())
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["job"] == job.to_dict()
        assert entry["result"] == [4.0]
        assert cache.load_entry("0" * 64) is None
