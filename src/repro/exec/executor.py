"""The one execution engine behind campaigns and experiments.

Runs a list of :class:`~repro.exec.jobspec.JobSpec` through a serial
loop, a supervised worker pool, a :class:`~repro.exec.queue.Broker`'s
worker daemons, or in-process blocks of a :class:`Batch`, with an
optional persistent :class:`~repro.exec.cache.ResultCache` consulted
first. Every path -- and a cache hit -- returns byte-identical results:
jobs are self-contained and deterministic, and every result is
normalized through the same JSON round trip before it reaches the
caller (see :func:`~repro.exec.jobspec.json_roundtrip`).

The engine is fault-tolerant. A :class:`RetryPolicy` gives every job a
bounded number of attempts with deterministic backoff and an optional
per-attempt wall-clock timeout (enforced by a watchdog thread on the
serial path and by killing the worker on the pooled path). Transient
failures -- :class:`~repro.errors.TransientJobError`, timeouts, abrupt
worker deaths, ``OSError`` -- are retried; permanent ones are not.
A job that exhausts its attempts becomes a structured
:class:`JobFailure` envelope: with ``keep_going`` the failure takes the
job's slot in the result list and its siblings keep running, without it
the first permanent failure aborts the batch with the job's label and
hash in the error. Injected faults (:mod:`repro.exec.faults`) ride the
same paths, which is how chaos tests prove the recovery machinery.

Within one ``run()`` call, jobs sharing a content hash execute once;
the result fans out to every duplicate. Progress callbacks fire in the
parent process as jobs complete: cache hits first (in job order), then
executions in completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional
from typing import Sequence, Tuple

from repro import schemas
from repro.errors import ExecError, JobTimeout, TransientJobError, WorkerCrash
from repro.exec import faults
from repro.exec.cache import ResultCache
from repro.exec.jobspec import JobSpec, json_roundtrip

if TYPE_CHECKING:  # the queue module imports this one
    from repro.exec.queue import Broker

#: Progress callback signature: ``(done, total, job, result, cached)``.
#: ``cached`` is ``True`` when the result was not freshly executed for
#: this job -- a cache-file hit or an in-run duplicate of another job.
#: With ``keep_going``, ``result`` is a :class:`JobFailure` for jobs
#: that exhausted their attempts.
ProgressCallback = Callable[[int, int, JobSpec, Any, bool], None]

#: Schema token of the :class:`JobFailure` plain-data envelope
#: (registered in :mod:`repro.schemas`, re-exported here).
FAILURE_SCHEMA = schemas.FAILURE_SCHEMA

#: Exception types the retry policy treats as transient (retryable).
#: Everything else is permanent. ``TimeoutError`` is an ``OSError``
#: subclass, so stdlib timeouts are covered too.
TRANSIENT_ERROR_TYPES = (
    TransientJobError,
    JobTimeout,
    WorkerCrash,
    ConnectionError,
    OSError,
)

#: Supervisor poll period: how often worker liveness and per-job
#: deadlines are checked while no result is arriving.
_TICK_S = 0.02


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` is worth retrying under a :class:`RetryPolicy`."""
    return isinstance(exc, TRANSIENT_ERROR_TYPES)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker count: ``None`` -> serial, ``0`` -> one worker
    per usable core (the CPUs this process may run on).

    Raises:
        ExecError: for a negative count.
    """
    if workers is None:
        return 1
    if workers == 0:
        try:
            return len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # no affinity API on this platform
            return os.cpu_count() or 1
    if workers < 0:
        raise ExecError(f"workers must be >= 0, got {workers}")
    return workers


def check_polling(poll_s: float, wait_timeout_s: Optional[float] = None) -> None:
    """Reject a poll interval or a wait timeout that is not positive.

    A poll interval of zero spins its wait loop and a negative one fails
    in :func:`time.sleep`; a wait timeout of zero or less gives up at
    once.

    Raises:
        ExecError: for ``poll_s <= 0`` or ``wait_timeout_s <= 0``
            (``None`` waits forever).
    """
    if poll_s <= 0:
        raise ExecError(f"poll_s must be > 0, got {poll_s}")
    if wait_timeout_s is not None and wait_timeout_s <= 0:
        raise ExecError(f"wait_timeout_s must be > 0, got {wait_timeout_s}")


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a job gets, and how long each may take.

    Attributes:
        max_attempts: total attempts per job (1 = no retries). Only
            *transient* failures (see :data:`TRANSIENT_ERROR_TYPES`)
            consume retries; a permanent error fails the job on the
            spot regardless of remaining attempts.
        backoff_s: deterministic exponential backoff -- the wait before
            attempt ``k+1`` is ``backoff_s * 2**(k-1)`` seconds, no
            jitter (retries must be as reproducible as the jobs).
        timeout_s: per-attempt wall-clock budget. ``None`` disables.
            On the pooled path an overrunning worker is killed and
            replaced; on the serial path a watchdog thread abandons the
            attempt (the stuck call may linger in the background until
            the process exits, but the batch moves on). Timeouts are
            transient: the attempt counts and the job may retry.

    Example:
        >>> RetryPolicy(max_attempts=3, backoff_s=0.5).backoff_for(2)
        1.0
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0:
            raise ExecError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ExecError(f"timeout_s must be > 0, got {self.timeout_s}")

    def backoff_for(self, completed_attempts: int) -> float:
        """Seconds to wait before the next attempt (deterministic)."""
        if self.backoff_s == 0.0 or completed_attempts < 1:
            return 0.0
        return self.backoff_s * (2.0 ** (completed_attempts - 1))


@dataclass(frozen=True)
class Batch:
    """How the batched backend groups jobs into blocks and runs one.

    Jobs with equal ``key`` fill blocks of at most ``size``, in job
    order; ``run`` takes one block and returns one result per member.
    A block that raises re-runs its members one by one through the
    serial retry path.
    """

    size: int
    key: Callable[[JobSpec], Any]
    run: Callable[[List[JobSpec]], List[Any]]


@dataclass(frozen=True)
class JobFailure:
    """Structured envelope of one job's final failure.

    What a failed job hands back instead of a result when the executor
    runs with ``keep_going``: everything an operator (or a campaign
    result file) needs to triage without digging through logs.
    Serializes to plain data carrying :data:`FAILURE_SCHEMA`.
    """

    job_hash: str
    label: str
    fn: str
    error_type: str
    message: str
    attempts: int
    transient: bool
    timed_out: bool = False
    worker_crash: bool = False

    def summary(self) -> str:
        """One-line human description of the failure."""
        name = self.label or self.job_hash[:12]
        return (
            f"{name} failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "schema": FAILURE_SCHEMA,
            "job_hash": self.job_hash,
            "label": self.label,
            "fn": self.fn,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "transient": self.transient,
            "timed_out": self.timed_out,
            "worker_crash": self.worker_crash,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobFailure":
        return cls(**{k: v for k, v in data.items() if k != "schema"})

    @classmethod
    def for_job(
        cls, job: JobSpec, attempts: int, error_type: str, message: str,
        transient: bool, timed_out: bool = False, worker_crash: bool = False,
    ) -> "JobFailure":
        """The envelope of ``job`` failing after ``attempts`` attempts."""
        return cls(
            job_hash=job.content_hash(),
            label=job.label,
            fn=job.fn,
            error_type=error_type,
            message=message,
            attempts=attempts,
            transient=transient,
            timed_out=timed_out,
            worker_crash=worker_crash,
        )

    @staticmethod
    def is_failure_payload(payload: Any) -> bool:
        """Whether a plain-data payload is a serialized failure envelope."""
        return isinstance(payload, dict) and payload.get("schema") == FAILURE_SCHEMA


@dataclass(frozen=True)
class ExecutionReport:
    """What one :meth:`Executor.run` call actually did.

    Attributes:
        total: number of jobs submitted.
        executed: jobs whose callable actually ran (unique executions).
        cached: jobs served without running -- persistent-cache hits
            plus in-run duplicates of an executed job.
        elapsed_s: wall-clock seconds of the whole run.
        failed: jobs that exhausted their attempts (only nonzero with
            ``keep_going``; without it the first failure raises).
        retried: extra attempts beyond the first, summed over jobs --
            a successful job that needed one retry contributes 1.
        timed_out: attempts cut short by the per-job timeout (counts
            attempts, not jobs: a job that timed out twice and then
            succeeded contributes 2).
        job_min_s: wall clock of the fastest executed job (0 when
            nothing executed).
        job_mean_s: mean wall clock over the executed jobs.
        job_max_s: wall clock of the slowest executed job.
        slowest_label: label (or content-hash prefix) of the slowest
            executed job -- the first place to look when a campaign
            stalls.
    """

    total: int
    executed: int
    cached: int
    elapsed_s: float
    failed: int = 0
    retried: int = 0
    timed_out: int = 0
    job_min_s: float = 0.0
    job_mean_s: float = 0.0
    job_max_s: float = 0.0
    slowest_label: str = ""

    def summary(self) -> str:
        """One-line human description, e.g. ``"12 jobs: 9 cached, 3 executed"``."""
        line = (
            f"{self.total} jobs: {self.cached} cached, {self.executed} executed "
            f"in {self.elapsed_s:.1f} s"
        )
        if self.failed:
            line += f", {self.failed} failed"
        if self.retried:
            line += f", {self.retried} retries"
        if self.timed_out:
            line += f", {self.timed_out} timeouts"
        return line

    def timings_summary(self) -> str:
        """Per-job wall-clock line; empty when nothing executed."""
        if self.executed == 0:
            return ""
        return (
            f"job wall clock: {self.job_min_s:.2f}/{self.job_mean_s:.2f}/"
            f"{self.job_max_s:.2f} s min/mean/max"
            + (f", slowest: {self.slowest_label}" if self.slowest_label else "")
        )


# -- attempt machinery ----------------------------------------------------


def _classify(exc: BaseException) -> Tuple[str, str, bool, bool, bool]:
    """A failed attempt's ``(error_type, message, transient, timed_out,
    worker_crash)``: the arguments :meth:`_Task.failed` takes."""
    return (
        type(exc).__name__, str(exc), is_transient(exc),
        isinstance(exc, JobTimeout), isinstance(exc, WorkerCrash),
    )


def _attempt(job: JobSpec, attempt: int) -> Any:
    """Run one attempt of ``job``, applying any injected faults first."""
    faults.fire_job_faults(job.content_hash(), attempt)
    return job.run()


def _watchdog_attempt(job: JobSpec, attempt: int, timeout_s: float) -> Any:
    """Serial-path attempt with a wall-clock watchdog.

    The job body runs in a daemon thread; overrunning ``timeout_s``
    raises :class:`~repro.errors.JobTimeout` and abandons the thread
    (it cannot be killed, but it no longer blocks the batch).
    """
    box: Dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = _attempt(job, attempt)
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            box["error"] = exc

    thread = threading.Thread(
        target=target, name=f"job-{job.content_hash()[:12]}", daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise JobTimeout(
            f"job {job.label or job.content_hash()[:12]} "
            f"[{job.content_hash()[:12]}] exceeded the {timeout_s:g} s "
            f"per-attempt timeout (serial watchdog)"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


class _Task:
    """Mutable per-job retry state inside one ``run()`` call.

    The one attempt ledger: every in-process and pooled path ends an
    attempt with :meth:`done` or :meth:`failed`.
    """

    __slots__ = ("index", "job", "attempts", "timeouts")

    def __init__(self, index: int, job: JobSpec) -> None:
        self.index = index
        self.job = job
        self.attempts = 0  # completed (failed) attempts so far
        self.timeouts = 0

    def done(self, value: Any, job_s: float) -> "_Outcome":
        """The outcome of an attempt that returned ``value``."""
        return _Outcome(
            index=self.index, attempts=self.attempts + 1, timeouts=self.timeouts,
            value=value, job_s=job_s,
        )

    def failed(
        self, policy: RetryPolicy, error_type: str, message: str, transient: bool,
        timed_out: bool = False, worker_crash: bool = False,
    ) -> Optional["_Outcome"]:
        """Charge a failed attempt; ``None`` while ``policy`` retries the job,
        else its final outcome."""
        self.attempts += 1
        if timed_out:
            self.timeouts += 1
        if transient and self.attempts < policy.max_attempts:
            return None
        failure = JobFailure.for_job(
            self.job, self.attempts, error_type, message, transient, timed_out,
            worker_crash,
        )
        return _Outcome(
            index=self.index, attempts=self.attempts, timeouts=self.timeouts,
            failure=failure,
        )


@dataclass
class _Outcome:
    """Final result of one unique job: a value or a failure envelope.

    Broker outcomes have no wall clock (``job_s=None``), and those done
    before the submit are ``cached``.
    """

    index: int
    attempts: int
    timeouts: int
    value: Any = None
    job_s: Optional[float] = 0.0
    failure: Optional[JobFailure] = None
    cached: bool = False


# -- pool worker ----------------------------------------------------------


def _pool_worker(worker_id: int, task_q: Any, result_q: Any) -> None:
    """Worker-process main loop: pull ``(index, attempt, job)``, push results.

    Results are pre-pickled in the worker so an unpicklable value
    surfaces as that job's error instead of silently wedging the
    queue's feeder thread.
    """
    while True:
        item = task_q.get()
        if item is None:
            return
        index, attempt, job = item
        start = time.perf_counter()
        try:
            value = _attempt(job, attempt)
            blob = pickle.dumps(value)
        except Exception as exc:  # noqa: BLE001 - relayed to the supervisor
            result_q.put(("err", worker_id, index, _classify(exc)))
        else:
            result_q.put(("ok", worker_id, index, blob, time.perf_counter() - start))


class _Worker:
    """Parent-side handle of one pool worker process."""

    __slots__ = ("proc", "task_q", "current", "deadline")

    def __init__(self, proc: multiprocessing.process.BaseProcess, task_q: Any) -> None:
        self.proc = proc
        self.task_q = task_q
        self.current: Optional[_Task] = None
        self.deadline: Optional[float] = None

    def kill(self) -> None:
        """Terminate the worker process, escalating to SIGKILL."""
        try:
            self.proc.terminate()
            self.proc.join(0.5)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(0.5)
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass


class Executor:
    """Job execution with caching and retries, through one of four backends.

    Args:
        workers: ``None``/``1`` for the serial path, ``0`` for one
            worker per usable core, otherwise the pool size. If no pool
            worker can be started (restricted environments), or every
            worker dies and none can be replaced, the remaining jobs run
            on the serial path with a :class:`RuntimeWarning` naming
            the requested count -- results are identical either way.
        cache: optional persistent result cache consulted before (and
            filled after) every execution; ``None`` disables caching.
        retry: per-job attempt/backoff/timeout policy; ``None`` means
            one attempt, no timeout (the historical behavior).
        keep_going: when ``True``, a job that exhausts its attempts
            yields a :class:`JobFailure` in its result slot and its
            siblings keep running; when ``False`` (default) the first
            exhausted job aborts the batch with an
            :class:`~repro.errors.ExecError` naming the job.
        broker: submit the uncached jobs (with ``retry`` as their
            attempt budget) to this :class:`~repro.exec.queue.Broker`
            and collect them as ``python -m repro.exec worker`` daemons
            finish; ``workers`` is unused. Jobs done before the submit
            count as cached.
        poll_s: broker backend -- seconds between outcome polls (> 0).
        wait_timeout_s: broker backend -- raise
            :class:`~repro.errors.ExecError` after this many seconds
            (> 0) without the jobs finishing; ``None`` waits forever.
        batch: run the uncached jobs in-process, in :class:`Batch`
            blocks. Each member keeps its own cache entry and progress
            call, and is reported with the block's wall clock amortized
            over its members. Cannot combine with ``broker`` or a pool.

    Example:
        >>> from repro.exec import Executor, JobSpec
        >>> jobs = [
        ...     JobSpec(fn="repro.exec.demo:scaled_sum",
        ...             kwargs={"values": [1.0, float(i)], "factor": 2.0})
        ...     for i in range(3)
        ... ]
        >>> executor = Executor()
        >>> executor.run(jobs)
        [2.0, 4.0, 6.0]
        >>> executor.last_report.summary()
        '3 jobs: 0 cached, 3 executed in 0.0 s'
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        retry: Optional[RetryPolicy] = None,
        keep_going: bool = False,
        broker: Optional["Broker"] = None,
        poll_s: float = 0.2,
        wait_timeout_s: Optional[float] = None,
        batch: Optional[Batch] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        check_polling(poll_s, wait_timeout_s)
        if batch is not None and (broker is not None or self.workers > 1):
            raise ExecError(
                "batch runs its blocks in-process; it cannot combine with "
                "a broker or workers > 1"
            )
        self.cache = cache
        self.retry = retry or RetryPolicy()
        self.keep_going = keep_going
        self.broker = broker
        self.poll_s = poll_s
        self.wait_timeout_s = wait_timeout_s
        self.batch = batch
        self.last_report: Optional[ExecutionReport] = None

    def run(
        self,
        jobs: Sequence[JobSpec],
        progress: Optional[ProgressCallback] = None,
        refresh: Optional[Callable[[JobSpec], bool]] = None,
    ) -> List[Any]:
        """Execute ``jobs`` and return their results in job order.

        Args:
            jobs: the specs to run.
            progress: optional callback invoked once per job as results
                become available, with ``(done, total, job, result,
                cached)``; runs in the parent process.
            refresh: optional predicate; jobs for which it returns True
                skip the cache *lookup* and execute even when a stored
                result exists (the fresh result is still stored, byte-
                identically for a deterministic job). Used when a job's
                side artifacts -- e.g. a mission's flight trace -- are
                missing although its scalar result is cached.

        Returns:
            One (JSON-normalized) result per job, in input order. With
            ``keep_going``, slots of failed jobs hold their
            :class:`JobFailure` instead.

        Raises:
            ExecError: when a job exhausts its attempts and
                ``keep_going`` is off; the message carries the job's
                label, hash, attempt count and original error.
        """
        start = time.perf_counter()
        jobs = list(jobs)
        total = len(jobs)
        results: List[Any] = [None] * total
        served = [False] * total
        done = 0
        executed = 0
        failed = 0
        retried = 0
        timed_out = 0
        timings: List[Tuple[float, str]] = []
        outcomes: Optional[Iterator[_Outcome]] = None
        # Everything below runs under one try/finally: the report must
        # describe THIS call even when a job or a user-supplied progress
        # callback raises mid-run -- a stale report from a previous run
        # would silently misattribute cache hits and timings. Cache
        # writes happen before the callback fires, so an aborted run
        # never loses or corrupts finished work.
        try:
            # 1. Serve what the persistent cache already knows.
            if self.cache is not None:
                for i, job in enumerate(jobs):
                    if refresh is not None and refresh(job):
                        continue
                    value, hit = self.cache.get(job)
                    if hit:
                        results[i] = value
                        served[i] = True
                        done += 1
                        if progress is not None:
                            progress(done, total, job, value, True)

            # 2. Group the remainder by content hash: duplicates of one
            #    computation execute once and fan out.
            groups: Dict[str, List[int]] = {}
            for i, job in enumerate(jobs):
                if not served[i]:
                    groups.setdefault(job.content_hash(), []).append(i)
            unique = [(indices[0], jobs[indices[0]]) for indices in groups.values()]

            outcomes = self._execute(unique)
            for outcome in outcomes:
                job = jobs[outcome.index]
                group = groups[job.content_hash()]
                retried += outcome.attempts - 1
                timed_out += outcome.timeouts
                if outcome.failure is not None:
                    if not self.keep_going:
                        raise ExecError(
                            f"job {outcome.failure.summary()} "
                            f"(pass keep_going to isolate failures)"
                        )
                    failed += len(group)
                    value: Any = outcome.failure
                else:
                    value = json_roundtrip(outcome.value)
                    if self.cache is not None:
                        self.cache.put(job, value)
                    if not outcome.cached:
                        executed += 1
                    if outcome.job_s is not None:
                        timings.append(
                            (outcome.job_s, job.label or job.content_hash()[:12])
                        )
                for k, i in enumerate(group):
                    results[i] = value
                    served[i] = True
                    done += 1
                    if progress is not None:
                        progress(done, total, jobs[i], value, k > 0 or outcome.cached)
        finally:
            if outcomes is not None:
                close = getattr(outcomes, "close", None)
                if close is not None:
                    close()  # tear down pool workers on abort
            slowest = max(timings) if timings else (0.0, "")
            self.last_report = ExecutionReport(
                total=total,
                executed=executed,
                # ``done - executed - failed`` == cache hits plus
                # duplicate fan-outs; on a completed run done == total,
                # so this matches the historical accounting exactly.
                cached=done - executed - failed,
                elapsed_s=time.perf_counter() - start,
                failed=failed,
                retried=retried,
                timed_out=timed_out,
                job_min_s=min(t for t, _ in timings) if timings else 0.0,
                job_mean_s=(
                    sum(t for t, _ in timings) / len(timings) if timings else 0.0
                ),
                job_max_s=slowest[0],
                slowest_label=slowest[1],
            )
        return results

    # -- backends ---------------------------------------------------------

    def _execute(self, items: List[Tuple[int, JobSpec]]) -> Iterator[_Outcome]:
        """Yield one final :class:`_Outcome` per item, in any order."""
        if self.broker is not None:
            return self._execute_broker(self.broker, items)
        if self.batch is not None:
            return self._execute_batched(self.batch, items)
        if self.workers > 1 and len(items) > 1:
            pooled = self._execute_pooled(items, min(self.workers, len(items)))
            if pooled is not None:
                return pooled
            self._warn_serial_fallback("no pool worker could be started", len(items))
        return (self._serial_outcome(_Task(index, job)) for index, job in items)

    def _warn_serial_fallback(self, why: str, n_jobs: int) -> None:
        """Say loudly that a requested pool is not running these jobs."""
        warnings.warn(
            f"workers={self.workers}: {why}; running {n_jobs} jobs serially "
            "in this process (results are identical)",
            RuntimeWarning,
        )

    # -- batched path -----------------------------------------------------

    def _execute_batched(
        self, batch: Batch, items: List[Tuple[int, JobSpec]]
    ) -> Iterator[_Outcome]:
        """Run ``items`` in blocks of equal :attr:`Batch.key`, one call each."""
        blocks: List[List[Tuple[int, JobSpec]]] = []
        open_blocks: Dict[Any, List[Tuple[int, JobSpec]]] = {}
        for item in items:
            key = batch.key(item[1])
            block = open_blocks.get(key)
            if block is None or len(block) >= batch.size:
                block = open_blocks[key] = []
                blocks.append(block)
            block.append(item)
        for block in blocks:
            start = time.perf_counter()
            try:
                values = batch.run([job for _, job in block])
            except Exception:  # noqa: BLE001 - members retry one by one
                for index, job in block:
                    yield self._serial_outcome(_Task(index, job))
                continue
            job_s = (time.perf_counter() - start) / len(block)
            for (index, job), value in zip(block, values):
                yield _Task(index, job).done(value, job_s)

    # -- broker path ------------------------------------------------------

    def _execute_broker(
        self, broker: "Broker", items: List[Tuple[int, JobSpec]]
    ) -> Iterator[_Outcome]:
        """Submit ``items`` to ``broker``; yield outcomes as workers finish.

        Jobs done before the submit count as cached. The broker counts
        only failed ``attempts``, plus expired-lease ``reclaims``; both
        fold into the outcome's attempt count.
        """
        index_of = {job.content_hash(): index for index, job in items}
        pre_done = {
            h for h, out in broker.outcomes(list(index_of)).items()
            if out.state == "done"
        }
        broker.submit([job for _, job in items], retry=self.retry)
        start = time.perf_counter()
        remaining = list(index_of)
        while True:
            finished = broker.outcomes(remaining)
            for h, out in finished.items():
                failure = out.failure()
                attempts = out.attempts + (1 if failure is None else 0)
                yield _Outcome(
                    index=index_of[h],
                    attempts=max(attempts, 1) + out.reclaims,
                    timeouts=out.timeouts,
                    value=out.result,
                    job_s=None,
                    failure=failure,
                    cached=out.cached or h in pre_done,
                )
            remaining = [h for h in remaining if h not in finished]
            if not remaining:
                return
            elapsed = time.perf_counter() - start
            if self.wait_timeout_s is not None and elapsed > self.wait_timeout_s:
                counts = broker.counts()
                raise ExecError(
                    f"broker drain timed out after {elapsed:.1f} s with "
                    f"{counts.remaining} of {len(index_of)} jobs "
                    f"unfinished ({counts.pending} pending, {counts.leased} "
                    f"leased) -- are any workers running?"
                )
            # Dead workers are normally noticed by the next lease() call;
            # reclaim here too so a fleet that died entirely still drains
            # (to `failed` once reclaim budgets exhaust) instead of hanging.
            broker.reclaim_expired()
            time.sleep(self.poll_s)

    # -- serial path ------------------------------------------------------

    def _serial_outcome(self, task: _Task) -> _Outcome:
        """Run ``task`` to completion in-process, honoring the policy."""
        policy = self.retry
        while True:
            start = time.perf_counter()
            try:
                if policy.timeout_s is None:
                    value = _attempt(task.job, task.attempts)
                else:
                    value = _watchdog_attempt(
                        task.job, task.attempts, policy.timeout_s
                    )
            except KeyboardInterrupt:
                raise  # user abort is not a job failure
            except Exception as exc:  # noqa: BLE001 - classified below
                outcome = task.failed(policy, *_classify(exc))
                if outcome is not None:
                    return outcome
                backoff = policy.backoff_for(task.attempts)
                if backoff > 0.0:
                    time.sleep(backoff)
            else:
                return task.done(value, time.perf_counter() - start)

    # -- pooled path ------------------------------------------------------

    def _execute_pooled(
        self, items: List[Tuple[int, JobSpec]], n_workers: int
    ) -> Optional[Iterator[_Outcome]]:
        """Supervised worker pool; ``None`` if no worker can be started.

        Each worker owns a task queue, so the supervisor always knows
        which job a worker holds: an abrupt worker death (``kill -9``,
        ``os._exit``, OOM) is charged to exactly that job instead of
        hanging the batch, and a job overrunning the policy timeout is
        reclaimed by killing its worker. Dead and killed workers are
        replaced while work remains.
        """
        try:
            result_q: Any = multiprocessing.Queue()
        except (OSError, ValueError, ImportError):  # pragma: no cover - env specific
            return None
        workers: Dict[int, _Worker] = {}
        for worker_id in range(n_workers):
            worker = self._start_worker(worker_id, result_q)
            if worker is None:
                break
            workers[worker_id] = worker
        if not workers:
            return None  # restricted environment: fall back to serial
        return self._supervise(items, workers, result_q, next_id=n_workers)

    @staticmethod
    def _start_worker(worker_id: int, result_q: Any) -> Optional[_Worker]:
        """Spawn one worker process, or ``None`` when the env forbids it."""
        try:
            task_q: Any = multiprocessing.Queue()
            proc = multiprocessing.Process(
                target=_pool_worker,
                args=(worker_id, task_q, result_q),
                daemon=True,
                name=f"repro-exec-{worker_id}",
            )
            proc.start()
        except (OSError, ValueError, ImportError, AttributeError):
            return None
        return _Worker(proc, task_q)

    def _supervise(
        self,
        items: List[Tuple[int, JobSpec]],
        workers: Dict[int, _Worker],
        result_q: Any,
        next_id: int,
    ) -> Iterator[_Outcome]:
        """Dispatch/collect loop: retries, deadlines, crash recovery."""
        policy = self.retry
        pending = deque(_Task(index, job) for index, job in items)
        delayed: List[Tuple[float, _Task]] = []  # (due perf_counter, task)
        outstanding = len(pending)
        target_size = len(workers)
        try:
            while outstanding:
                now = time.perf_counter()
                if delayed:
                    due = [entry for entry in delayed if entry[0] <= now]
                    for entry in due:
                        delayed.remove(entry)
                        pending.append(entry[1])
                for worker in workers.values():
                    if worker.current is None and pending:
                        task = pending.popleft()
                        worker.current = task
                        worker.deadline = (
                            now + policy.timeout_s
                            if policy.timeout_s is not None
                            else None
                        )
                        worker.task_q.put((task.index, task.attempts, task.job))
                try:
                    msg = result_q.get(timeout=_TICK_S)
                except queue.Empty:
                    msg = None
                if msg is not None:
                    outcome = self._handle_message(msg, workers, delayed)
                    if outcome is not None:
                        outstanding -= 1
                        yield outcome
                    continue
                # No message this tick: check deadlines and liveness.
                for worker_id in list(workers):
                    worker = workers[worker_id]
                    outcome = self._reap_worker(worker_id, worker, workers, delayed)
                    if outcome is not None:
                        outstanding -= 1
                        yield outcome
                # Replace dead/killed workers while work remains.
                live_needed = min(target_size, outstanding)
                while len(workers) < live_needed:
                    worker = self._start_worker(next_id, result_q)
                    if worker is None:
                        break
                    workers[next_id] = worker
                    next_id += 1
                if not workers and outstanding:
                    # Every worker is gone and none can be started:
                    # drain the remainder in-process so the batch still
                    # completes (results are identical either way).
                    leftovers = [
                        entry[1] for entry in delayed
                    ] + list(pending)
                    delayed.clear()
                    pending.clear()
                    self._warn_serial_fallback(
                        "every pool worker died and none could be restarted",
                        len(leftovers),
                    )
                    for task in leftovers:
                        outstanding -= 1
                        yield self._serial_outcome(task)
                    return
        finally:
            self._shutdown(workers, result_q)

    def _handle_message(
        self,
        msg: tuple,
        workers: Dict[int, _Worker],
        delayed: List[Tuple[float, _Task]],
    ) -> Optional[_Outcome]:
        """Process one worker message; returns a final outcome, if any."""
        kind, worker_id, index = msg[0], msg[1], msg[2]
        worker = workers.get(worker_id)
        if worker is None or worker.current is None or worker.current.index != index:
            return None  # stale message from a worker killed on timeout
        task = worker.current
        worker.current = None
        worker.deadline = None
        if kind == "ok":
            _, _, _, blob, job_s = msg
            return task.done(pickle.loads(blob), job_s)
        return self._charge(task, delayed, *msg[3])

    def _charge(
        self, task: _Task, delayed: List[Tuple[float, _Task]], *failure: Any,
        **flags: Any,
    ) -> Optional[_Outcome]:
        """:meth:`_Task.failed`, queueing the retry while attempts remain."""
        outcome = task.failed(self.retry, *failure, **flags)
        if outcome is None:
            due = time.perf_counter() + self.retry.backoff_for(task.attempts)
            delayed.append((due, task))
        return outcome

    def _reap_worker(
        self,
        worker_id: int,
        worker: _Worker,
        workers: Dict[int, _Worker],
        delayed: List[Tuple[float, _Task]],
    ) -> Optional[_Outcome]:
        """Handle one worker's timeout or death; returns a final outcome."""
        now = time.perf_counter()
        task = worker.current
        if task is not None and worker.deadline is not None and now > worker.deadline:
            # Per-job timeout: reclaim the worker, charge the attempt.
            worker.kill()
            del workers[worker_id]
            job = task.job
            return self._charge(
                task, delayed, JobTimeout.__name__,
                f"job {job.label or job.content_hash()[:12]} "
                f"[{job.content_hash()[:12]}] exceeded the "
                f"{self.retry.timeout_s:g} s per-attempt timeout; "
                f"worker killed",
                transient=True, timed_out=True,
            )
        if worker.proc.is_alive():
            return None
        # Abrupt death (kill -9, os._exit, OOM): charge the held job.
        exitcode = worker.proc.exitcode
        del workers[worker_id]
        if task is None:
            return None  # died idle; replacement handled by the caller
        job = task.job
        return self._charge(
            task, delayed, WorkerCrash.__name__,
            f"worker died (exit code {exitcode}) while running "
            f"{job.label or job.content_hash()[:12]} "
            f"[{job.content_hash()[:12]}]",
            transient=True, worker_crash=True,
        )

    @staticmethod
    def _shutdown(workers: Dict[int, _Worker], result_q: Any) -> None:
        """Stop every worker: sentinel first, then escalate."""
        for worker in workers.values():
            try:
                worker.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for worker in workers.values():
            worker.proc.join(0.5)
            if worker.proc.is_alive():
                worker.kill()
        for worker in workers.values():
            worker.task_q.close()
        result_q.close()
        workers.clear()
