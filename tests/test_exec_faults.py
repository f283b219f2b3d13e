"""Fault injection, retries, timeouts and failure isolation."""

import multiprocessing
import os

import pytest

from repro.errors import ExecError, JobTimeout, TransientJobError, WorkerCrash
from repro.exec import (
    FAILURE_SCHEMA,
    FAULT_PLAN_ENV,
    Executor,
    FaultPlan,
    FaultSpec,
    JobFailure,
    JobSpec,
    ResultCache,
    RetryPolicy,
    is_transient,
)
from repro.exec import faults
from repro.exec.executor import TRANSIENT_ERROR_TYPES


def sum_job(i=0, label=""):
    return JobSpec(
        fn="repro.exec.demo:scaled_sum",
        kwargs={"values": [1.0, float(i)], "factor": 2.0},
        version="v1",
        label=label,
    )


def sleepy_job(sleep_s, i=0):
    return JobSpec(
        fn="repro.exec.demo:sleepy_echo",
        kwargs={"value": float(i), "sleep_s": sleep_s},
        version="v1",
    )


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    yield
    faults.deactivate()


class TestRetryPolicy:
    def test_defaults_mean_one_attempt(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.timeout_s is None
        assert policy.backoff_for(1) == 0.0

    def test_backoff_doubles_deterministically(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.5)
        assert [policy.backoff_for(k) for k in (1, 2, 3)] == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_s": -1.0},
            {"timeout_s": 0.0},
            {"timeout_s": -5.0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ExecError):
            RetryPolicy(**kwargs)

    def test_transient_classification(self):
        for exc in (
            TransientJobError("x"),
            JobTimeout("x"),
            WorkerCrash("x"),
            ConnectionError(),
            TimeoutError(),
            OSError(),
        ):
            assert is_transient(exc), exc
        assert not is_transient(ExecError("permanent"))
        assert not is_transient(ValueError("permanent"))
        assert TimeoutError.__mro__  # stdlib TimeoutError is an OSError
        assert issubclass(TimeoutError, TRANSIENT_ERROR_TYPES)


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecError, match="unknown fault kind"):
            FaultSpec(kind="explode")

    def test_matching_by_prefix_and_attempt(self):
        spec = FaultSpec(kind="raise", match="ab", attempt=1)
        assert spec.matches("abcd", 1)
        assert not spec.matches("abcd", 0)
        assert not spec.matches("cdab", 1)
        every = FaultSpec(kind="raise", attempt=None)
        assert every.matches("anything", 0) and every.matches("anything", 7)
        cache = FaultSpec(kind="cache-corrupt", match="ab")
        assert cache.matches("abcd")  # cache faults ignore attempts

    def test_json_roundtrip(self):
        plan = FaultPlan((
            FaultSpec(kind="raise", match="ab", attempt=2, message="zap"),
            FaultSpec(kind="crash", exit_code=9),
            FaultSpec(kind="cache-torn", match="ff"),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_bad_json_rejected(self):
        with pytest.raises(ExecError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ExecError, match="must be an object"):
            FaultPlan.from_json("[1, 2]")

    def test_env_activation_inline_json(self, monkeypatch):
        plan = FaultPlan((FaultSpec(kind="raise", match="ab"),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert faults.active_plan() == plan

    def test_env_activation_file_path(self, monkeypatch, tmp_path):
        plan = FaultPlan((FaultSpec(kind="delay", delay_s=0.01),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert faults.active_plan() == plan

    def test_env_missing_file_is_an_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULT_PLAN_ENV, str(tmp_path / "nope.json"))
        with pytest.raises(ExecError, match="neither JSON nor a readable file"):
            faults.active_plan()

    def test_in_process_plan_overrides_env(self, monkeypatch):
        env_plan = FaultPlan((FaultSpec(kind="raise"),))
        monkeypatch.setenv(FAULT_PLAN_ENV, env_plan.to_json())
        local = FaultPlan(())
        with faults.injected(local):
            assert faults.active_plan() == local
        assert faults.active_plan() == env_plan

    def test_no_plan_is_a_noop(self):
        assert faults.active_plan() is None
        faults.fire_job_faults("abcd", 0)  # must not raise
        assert faults.mangle_cache_write("abcd", "blob") == "blob"


class TestRetries:
    def test_transient_fault_retried_serial(self):
        jobs = [sum_job(i) for i in range(3)]
        plan = FaultPlan((FaultSpec(kind="raise", attempt=0),))
        executor = Executor(retry=RetryPolicy(max_attempts=2))
        with faults.injected(plan):
            assert executor.run(jobs) == [2.0, 4.0, 6.0]
        report = executor.last_report
        assert report.retried == 3 and report.failed == 0
        assert "3 retries" in report.summary()

    def test_transient_fault_retried_pooled(self):
        jobs = [sum_job(i) for i in range(4)]
        plan = FaultPlan((FaultSpec(kind="raise", attempt=0),))
        executor = Executor(workers=2, retry=RetryPolicy(max_attempts=3))
        with faults.injected(plan):
            assert executor.run(jobs) == [2.0, 4.0, 6.0, 8.0]
        assert executor.last_report.retried == 4

    def test_retries_do_not_change_results(self):
        jobs = [sum_job(i) for i in range(3)]
        clean = Executor().run(jobs)
        plan = FaultPlan((FaultSpec(kind="raise", attempt=0),))
        with faults.injected(plan):
            chaotic = Executor(retry=RetryPolicy(max_attempts=2)).run(jobs)
        assert chaotic == clean

    def test_permanent_fault_not_retried(self):
        plan = FaultPlan((FaultSpec(kind="raise", permanent=True, message="dead"),))
        executor = Executor(retry=RetryPolicy(max_attempts=5), keep_going=True)
        with faults.injected(plan):
            [failure] = executor.run([sum_job()])
        assert isinstance(failure, JobFailure)
        assert failure.attempts == 1 and not failure.transient
        assert "dead" in failure.message

    def test_exhausted_transient_failure_reports_attempts(self):
        plan = FaultPlan((FaultSpec(kind="raise", attempt=None),))
        executor = Executor(retry=RetryPolicy(max_attempts=3), keep_going=True)
        with faults.injected(plan):
            [failure] = executor.run([sum_job()])
        assert failure.attempts == 3 and failure.transient
        assert executor.last_report.retried == 2
        assert executor.last_report.failed == 1

    def test_delay_fault_just_slows_the_job(self):
        plan = FaultPlan((FaultSpec(kind="delay", delay_s=0.01),))
        with faults.injected(plan):
            assert Executor().run([sum_job(1)]) == [4.0]


class TestFailureIsolation:
    def test_default_aborts_with_the_job_named(self):
        plan = FaultPlan((FaultSpec(kind="raise", permanent=True, message="zap"),))
        job = sum_job(label="the-culprit")
        with faults.injected(plan):
            with pytest.raises(ExecError, match="the-culprit") as excinfo:
                Executor().run([job])
        assert "zap" in str(excinfo.value)

    def test_keep_going_isolates_the_failure(self):
        jobs = [sum_job(i) for i in range(4)]
        target = jobs[2].content_hash()[:12]
        plan = FaultPlan((
            FaultSpec(kind="raise", match=target, attempt=None, permanent=True),
        ))
        executor = Executor(keep_going=True)
        with faults.injected(plan):
            results = executor.run(jobs)
        assert [isinstance(r, JobFailure) for r in results] == [
            False, False, True, False,
        ]
        assert results[0] == 2.0 and results[3] == 8.0
        assert executor.last_report.failed == 1
        assert "1 failed" in executor.last_report.summary()

    def test_keep_going_pooled(self):
        jobs = [sum_job(i) for i in range(4)]
        target = jobs[1].content_hash()[:12]
        plan = FaultPlan((
            FaultSpec(kind="raise", match=target, attempt=None, permanent=True),
        ))
        executor = Executor(workers=2, keep_going=True)
        with faults.injected(plan):
            results = executor.run(jobs)
        assert isinstance(results[1], JobFailure)
        assert [results[0], results[2], results[3]] == [2.0, 6.0, 8.0]

    def test_failure_fans_out_to_duplicate_jobs(self):
        jobs = [sum_job(7), sum_job(7)]  # same content hash
        plan = FaultPlan((FaultSpec(kind="raise", permanent=True),))
        executor = Executor(keep_going=True)
        with faults.injected(plan):
            first, second = executor.run(jobs)
        assert isinstance(first, JobFailure) and first is second
        assert executor.last_report.failed == 2

    def test_failed_jobs_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        plan = FaultPlan((FaultSpec(kind="raise", attempt=None),))
        with faults.injected(plan):
            Executor(cache=cache, keep_going=True).run([sum_job()])
        assert cache.stats().entries == 0
        # After the fault clears, the job executes and caches normally.
        executor = Executor(cache=cache)
        assert executor.run([sum_job()]) == [2.0]
        assert cache.stats().entries == 1

    def test_failure_envelope_roundtrip(self):
        failure = JobFailure(
            job_hash="ab" * 32,
            label="m1",
            fn="pkg.mod:fn",
            error_type="ExecError",
            message="zap",
            attempts=3,
            transient=True,
            timed_out=True,
        )
        data = failure.to_dict()
        assert data["schema"] == FAILURE_SCHEMA
        assert JobFailure.is_failure_payload(data)
        assert not JobFailure.is_failure_payload({"schema": "other"})
        assert not JobFailure.is_failure_payload(3.0)
        assert JobFailure.from_dict(data) == failure
        assert "m1" in failure.summary() and "3 attempt(s)" in failure.summary()


class TestTimeouts:
    def test_serial_timeout_is_a_transient_failure(self):
        executor = Executor(
            retry=RetryPolicy(max_attempts=1, timeout_s=0.2), keep_going=True
        )
        [failure] = executor.run([sleepy_job(5.0)])
        assert isinstance(failure, JobFailure)
        assert failure.timed_out and failure.transient
        assert failure.error_type == "JobTimeout"
        assert executor.last_report.timed_out == 1

    def test_pooled_timeout_kills_the_worker(self):
        jobs = [sleepy_job(30.0), sum_job(1)]
        executor = Executor(
            workers=2,
            retry=RetryPolicy(max_attempts=1, timeout_s=0.5),
            keep_going=True,
        )
        results = executor.run(jobs)
        assert isinstance(results[0], JobFailure) and results[0].timed_out
        assert jobs[0].content_hash()[:12] in results[0].message
        assert results[1] == 4.0  # the sibling was never poisoned
        assert executor.last_report.timed_out == 1

    def test_fast_jobs_never_hit_the_timeout(self):
        executor = Executor(retry=RetryPolicy(max_attempts=1, timeout_s=30.0))
        assert executor.run([sum_job(i) for i in range(3)]) == [2.0, 4.0, 6.0]
        assert executor.last_report.timed_out == 0


class TestWorkerCrash:
    def test_crash_fault_in_main_process_raises(self):
        # In the main process the crash fault must NOT os._exit; it
        # degrades to a transient WorkerCrash exception instead.
        plan = FaultPlan((FaultSpec(kind="crash"),))
        with faults.injected(plan):
            with pytest.raises(WorkerCrash):
                faults.fire_job_faults(sum_job().content_hash(), attempt=0)
            with pytest.raises(ExecError, match="WorkerCrash"):
                Executor().run([sum_job()])

    def test_crash_recovered_by_retry_serial(self):
        plan = FaultPlan((FaultSpec(kind="crash", attempt=0),))
        executor = Executor(retry=RetryPolicy(max_attempts=2))
        with faults.injected(plan):
            assert executor.run([sum_job(1)]) == [4.0]
        assert executor.last_report.retried == 1

    def test_dead_worker_surfaces_as_that_jobs_failure(self):
        jobs = [sum_job(i, label=f"job-{i}") for i in range(3)]
        target = jobs[0].content_hash()
        plan = FaultPlan((FaultSpec(kind="crash", match=target[:12], attempt=None),))
        executor = Executor(workers=2, keep_going=True)
        with faults.injected(plan):
            results = executor.run(jobs)
        failure = results[0]
        assert isinstance(failure, JobFailure) and failure.worker_crash
        assert failure.error_type == "WorkerCrash"
        assert "job-0" in failure.message and target[:12] in failure.message
        assert results[1:] == [4.0, 6.0]  # siblings unaffected, no hang

    def test_crashed_worker_respawned_and_job_retried(self):
        jobs = [sum_job(i) for i in range(4)]
        plan = FaultPlan((FaultSpec(kind="crash", attempt=0),))
        executor = Executor(workers=2, retry=RetryPolicy(max_attempts=3))
        with faults.injected(plan):
            assert executor.run(jobs) == [2.0, 4.0, 6.0, 8.0]
        assert executor.last_report.retried == 4
        assert executor.last_report.failed == 0


class TestCacheFaults:
    def test_corrupt_write_quarantined_then_healed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = sum_job(3)
        plan = FaultPlan((FaultSpec(kind="cache-corrupt"),))
        with faults.injected(plan):
            clean = Executor(cache=cache).run([job])
        assert clean == [8.0]  # the fault mangles the disk blob, not the result
        # The poisoned entry quarantines on first read, then re-executes.
        healing = Executor(cache=cache)
        assert healing.run([job]) == clean
        assert cache.quarantines == 1
        assert healing.last_report.executed == 1
        stats = cache.stats()
        assert stats.quarantined == 1 and stats.entries == 1
        # Third run: a plain hit on the healed entry.
        third = Executor(cache=cache)
        assert third.run([job]) == clean
        assert third.last_report.cached == 1

    def test_torn_write_also_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = sum_job(5)
        plan = FaultPlan((FaultSpec(kind="cache-torn"),))
        with faults.injected(plan):
            Executor(cache=cache).run([job])
        _, hit = cache.get(job)
        assert not hit and cache.quarantines == 1

    def test_mangle_targets_only_matching_hashes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        jobs = [sum_job(1), sum_job(2)]
        target = jobs[0].content_hash()[:12]
        plan = FaultPlan((FaultSpec(kind="cache-corrupt", match=target),))
        with faults.injected(plan):
            Executor(cache=cache).run(jobs)
        _, hit0 = cache.get(jobs[0])
        _, hit1 = cache.get(jobs[1])
        assert not hit0 and hit1


class TestPoolFallback:
    def test_pool_creation_failure_falls_back_to_serial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(multiprocessing, "Process", refuse)
        executor = Executor(workers=4)
        with pytest.warns(RuntimeWarning, match="workers=4: no pool worker"):
            assert executor.run([sum_job(i) for i in range(3)]) == [2.0, 4.0, 6.0]
        assert executor.last_report.executed == 3

    def test_fallback_preserves_retry_semantics(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(multiprocessing, "Process", refuse)
        plan = FaultPlan((FaultSpec(kind="raise", attempt=0),))
        executor = Executor(workers=4, retry=RetryPolicy(max_attempts=2))
        with faults.injected(plan):
            with pytest.warns(RuntimeWarning, match="workers=4: no pool worker"):
                assert executor.run([sum_job(i) for i in range(3)]) == [2.0, 4.0, 6.0]
        assert executor.last_report.retried == 3

    def test_losing_every_worker_drains_serially_with_a_warning(self, monkeypatch):
        # One worker starts, crashes on its first job, and no replacement
        # can be started: the supervisor finishes the batch in-process.
        start_worker = Executor._start_worker
        started = []

        def start_only_one(worker_id, result_q):
            if started:
                return None
            started.append(worker_id)
            return start_worker(worker_id, result_q)

        monkeypatch.setattr(Executor, "_start_worker", staticmethod(start_only_one))
        plan = FaultPlan((FaultSpec(kind="crash", attempt=0),))
        executor = Executor(workers=2, retry=RetryPolicy(max_attempts=2))
        with faults.injected(plan):
            with pytest.warns(RuntimeWarning, match="workers=2: every pool worker died"):
                assert executor.run([sum_job(i) for i in range(3)]) == [2.0, 4.0, 6.0]
        assert started == [0]
        assert executor.last_report.failed == 0


class TestWorkersInheritEnvPlan:
    def test_env_plan_reaches_pool_workers(self, monkeypatch, tmp_path):
        # The env-var plan is read inside each worker process, so chaos
        # reaches jobs running in the pool without any in-process setup.
        jobs = [sum_job(i) for i in range(3)]
        plan = FaultPlan((FaultSpec(kind="raise", attempt=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        executor = Executor(workers=2, retry=RetryPolicy(max_attempts=2))
        assert executor.run(jobs) == [2.0, 4.0, 6.0]
        assert executor.last_report.retried == 3
