"""Worker daemon: lease jobs from a :class:`~repro.exec.queue.Broker`,
run them through the standard attempt machinery, push results back.

A worker is the queue-side twin of the in-process
:class:`~repro.exec.executor.Executor`: same cache-first lookup, same
fault-injection hook, same per-attempt watchdog timeout, same failure
envelopes -- so a campaign drained by a fleet of workers is
byte-identical to one executed serially. Each worker runs **one attempt
per lease**: retry accounting lives in the broker (``fail()`` requeues
transient failures with deterministic backoff), which keeps attempts
correct even when the retrying "loop" spans three different worker
processes, two of which died.

While an attempt runs, a daemon heartbeat thread extends the lease at a
third of its duration; a worker that loses its lease (heartbeats
refused after an expiry reclaim) abandons the result -- the broker
would refuse it anyway. SIGTERM/SIGINT (wired by ``python -m repro.exec
worker``) request a graceful stop: the current job finishes and is
completed before the loop exits.

Example:
    >>> import os, tempfile
    >>> from repro.exec import Broker, JobSpec, Worker
    >>> db = os.path.join(tempfile.mkdtemp(), "queue.db")
    >>> job = JobSpec(fn="repro.exec.demo:scaled_sum",
    ...               kwargs={"values": [1.0, 2.0], "factor": 3.0})
    >>> with Broker(db) as broker:
    ...     _ = broker.submit([job])
    ...     report = Worker(broker, worker_id="w1",
    ...                     exit_when_drained=True).run()
    ...     outcome = broker.outcome(job.content_hash())
    >>> (report.completed, outcome.state, outcome.result)
    (1, 'done', 9.0)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.exec.cache import ResultCache
from repro.exec.executor import (
    JobFailure,
    RetryPolicy,
    _attempt,
    _classify,
    _watchdog_attempt,
    check_polling,
)
from repro.exec.queue import Broker, Lease, default_worker_id

#: Idle poll interval when the queue has nothing leasable.
DEFAULT_POLL_S = 0.2


@dataclass
class WorkerReport:
    """What one :meth:`Worker.run` loop did, for logs and tests."""

    worker: str = ""
    completed: int = 0  #: results pushed (executed + cache hits)
    cache_hits: int = 0
    requeued: int = 0  #: transient failures handed back for retry
    failed: int = 0  #: permanent / exhausted failures recorded
    lost: int = 0  #: leases expired under us; results discarded
    elapsed_s: float = 0.0
    events: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"worker {self.worker}: {self.completed} completed "
            f"({self.cache_hits} cached), {self.requeued} requeued, "
            f"{self.failed} failed, {self.lost} lost "
            f"in {self.elapsed_s:.1f} s"
        )


class Worker:
    """One worker daemon loop over a shared broker.

    Args:
        broker: the queue to drain (the worker does not own it).
        cache: optional shared :class:`ResultCache` -- hits are pushed
            to the broker without executing, and fresh results are
            stored before completion so sibling workers (and later
            serial runs) hit them.
        retry: supplies the per-attempt ``timeout_s`` and the
            deterministic ``backoff_s`` used when requeueing transient
            failures. ``max_attempts`` is broker-side state fixed at
            submit time; the worker never second-guesses it.
        worker_id: stable identity; defaults to ``<host>:<pid>``.
        lease_s: lease duration to request; default is the broker's.
        poll_s: idle sleep between empty :meth:`Broker.lease` calls (> 0).
        max_jobs: stop after this many pushed results (tests).
        exit_when_drained: return once the queue holds no pending or
            leased jobs instead of polling forever.
    """

    def __init__(
        self,
        broker: Broker,
        cache: Optional[ResultCache] = None,
        retry: Optional[RetryPolicy] = None,
        worker_id: Optional[str] = None,
        lease_s: Optional[float] = None,
        poll_s: float = DEFAULT_POLL_S,
        max_jobs: Optional[int] = None,
        exit_when_drained: bool = False,
    ) -> None:
        check_polling(poll_s)
        self.broker = broker
        self.cache = cache
        self.retry = retry or RetryPolicy()
        self.worker_id = worker_id or default_worker_id()
        self.lease_s = lease_s if lease_s is not None else broker.lease_s
        self.poll_s = poll_s
        self.max_jobs = max_jobs
        self.exit_when_drained = exit_when_drained
        self._stop = threading.Event()

    def request_stop(self) -> None:
        """Ask the loop to exit after the in-flight job (signal-safe)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # -- main loop --------------------------------------------------------

    def run(self) -> WorkerReport:
        """Lease/execute/complete until stopped, drained or capped."""
        report = WorkerReport(worker=self.worker_id)
        start = time.perf_counter()
        self.broker.register_worker(self.worker_id)
        while not self._stop.is_set():
            if self.max_jobs is not None and report.completed >= self.max_jobs:
                break
            lease = self.broker.lease(self.worker_id, lease_s=self.lease_s)
            if lease is None:
                if self.exit_when_drained and self.broker.counts().remaining == 0:
                    break
                if self._stop.wait(self.poll_s):
                    break
                continue
            self._work_one(lease, report)
        report.elapsed_s = time.perf_counter() - start
        return report

    def _work_one(self, lease: Lease, report: WorkerReport) -> None:
        """Run one leased attempt and push its outcome to the broker."""
        job = lease.job
        short = lease.content_hash[:12]

        if self.cache is not None:
            value, hit = self.cache.get(job)
            if hit:
                if self.broker.complete(
                    self.worker_id, lease.content_hash, value, cached=True
                ):
                    report.completed += 1
                    report.cache_hits += 1
                    report.events.append(f"cached {short}")
                else:
                    report.lost += 1
                    report.events.append(f"lost {short} (cache hit)")
                return

        lost_lease = threading.Event()
        stop_beat = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease.content_hash, stop_beat, lost_lease),
            name=f"heartbeat-{short}",
            daemon=True,
        )
        beat.start()
        try:
            try:
                if self.retry.timeout_s is not None:
                    value = _watchdog_attempt(job, lease.attempt, self.retry.timeout_s)
                else:
                    value = _attempt(job, lease.attempt)
            except Exception as exc:  # noqa: BLE001 - becomes the envelope
                self._push_failure(lease, exc, report)
                return
            if self.cache is not None:
                self.cache.put(job, value)
            if lost_lease.is_set():
                report.lost += 1
                report.events.append(f"lost {short} (completed late)")
                return
            if self.broker.complete(self.worker_id, lease.content_hash, value):
                report.completed += 1
                report.events.append(f"done {short}")
            else:
                report.lost += 1
                report.events.append(f"lost {short} (completed late)")
        finally:
            stop_beat.set()
            beat.join(timeout=5.0)

    def _heartbeat_loop(
        self, content_hash: str, stop: threading.Event, lost: threading.Event
    ) -> None:
        interval = max(self.lease_s / 3.0, 0.05)
        while not stop.wait(interval):
            if not self.broker.heartbeat(
                self.worker_id, content_hash, lease_s=self.lease_s
            ):
                lost.set()
                return

    def _push_failure(
        self, lease: Lease, exc: Exception, report: WorkerReport
    ) -> None:
        failure = JobFailure.for_job(lease.job, lease.attempt + 1, *_classify(exc))
        delay = self.retry.backoff_for(lease.attempt + 1)
        state = self.broker.fail(
            self.worker_id, lease.content_hash, failure, retry_delay_s=delay
        )
        short = lease.content_hash[:12]
        if state == "requeued":
            report.requeued += 1
            report.events.append(f"requeued {short}: {failure.error_type}")
        elif state == "failed":
            report.failed += 1
            report.events.append(f"failed {short}: {failure.error_type}")
        else:
            report.lost += 1
            report.events.append(f"lost {short} (failure after reclaim)")


def run_worker(
    broker_path: str,
    cache: Optional[ResultCache] = None,
    retry: Optional[RetryPolicy] = None,
    **kwargs: Any,
) -> WorkerReport:
    """Open ``broker_path`` and run one :class:`Worker` loop over it."""
    with Broker(broker_path) as broker:
        worker = Worker(broker, cache=cache, retry=retry, **kwargs)
        return worker.run()


__all__ = ["Worker", "WorkerReport", "run_worker", "DEFAULT_POLL_S"]
