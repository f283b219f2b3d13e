"""CLI entry: run worker daemons and drive the distributed work queue.

Usage:
    python -m repro.exec worker --broker queue.db --exit-when-drained
    python -m repro.exec worker --broker queue.db --timeout 120 &   # fleet
    python -m repro.exec submit --broker queue.db jobs.json --retries 3
    python -m repro.exec status --broker queue.db [--json]
    python -m repro.exec drain --broker queue.db --wait-timeout 600
    python -m repro.exec requeue --broker queue.db

The broker is one SQLite file (WAL mode): point any number of
``worker`` processes -- on any host sharing the filesystem -- at the
same path and they cooperatively drain it, each job leased to exactly
one worker at a time, re-leased if its worker dies, completed exactly
once. ``submit`` enqueues a JSON list of job specs (the
``JobSpec.to_dict()`` wire format, plus optional ``label``); campaigns
are enqueued with ``python -m repro.sim run --broker queue.db``.
Workers share the standard result cache (``--cache-dir`` /
``$REPRO_CACHE_DIR``; ``--no-cache`` opts out).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from types import FrameType
from typing import List, Optional, Sequence

from repro.errors import ExecError
from repro.exec import Broker, JobSpec, RetryPolicy, Worker, default_worker_id
from repro.exec.executor import check_polling
from repro.exec.flags import add_flags, cache_from
from repro.exec.queue import DEFAULT_MAX_RECLAIMS


def _cmd_worker(args: argparse.Namespace) -> int:
    cache = cache_from(args)
    retry = RetryPolicy(
        max_attempts=1, backoff_s=args.retry_backoff, timeout_s=args.timeout
    )
    with Broker(args.broker) as broker:
        worker = Worker(
            broker,
            cache=cache,
            retry=retry,
            worker_id=args.worker_id or default_worker_id(),
            lease_s=args.lease,
            poll_s=args.poll,
            max_jobs=args.max_jobs,
            exit_when_drained=args.exit_when_drained,
        )

        def _graceful(signum: int, _frame: Optional[FrameType]) -> None:
            print(
                f"worker {worker.worker_id}: caught signal {signum}, "
                "finishing current job",
                flush=True,
            )
            worker.request_stop()

        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
        print(
            f"worker {worker.worker_id} draining {args.broker} "
            f"(lease {worker.lease_s:g} s)",
            flush=True,
        )
        report = worker.run()
    print(report.summary())
    if args.verbose:
        for event in report.events:
            print(f"  {event}")
    return 0


def _existing_broker(path: str) -> Broker:
    """The queue at ``path``, for the commands that only inspect or change
    one: unlike ``Broker(path)``, a mistyped path creates nothing."""
    if not os.path.isfile(path):
        raise ExecError(f"no queue database at {path}")
    return Broker(path)


def _load_job_dicts(path: str) -> List[JobSpec]:
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
        data = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise ExecError(f"cannot load job specs from {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ExecError("submit expects a JSON list of job spec objects")
    jobs: List[JobSpec] = []
    for entry in data:
        if not isinstance(entry, dict):
            raise ExecError(f"job spec entries must be objects, got {type(entry).__name__}")
        entry = dict(entry)
        label = entry.pop("label", "")
        jobs.append(JobSpec.from_dict(entry, label=label))
    return jobs


def _cmd_submit(args: argparse.Namespace) -> int:
    jobs = _load_job_dicts(args.jobs)
    retry = RetryPolicy(max_attempts=args.retries)
    with Broker(args.broker) as broker:
        report = broker.submit(jobs, retry=retry, max_reclaims=args.max_reclaims)
        counts = broker.counts()
    print(
        f"submitted {report.submitted} jobs to {args.broker} "
        f"({report.duplicates} already queued, {report.already_done} already "
        f"done); queue: {counts.pending} pending, {counts.leased} leased, "
        f"{counts.done} done, {counts.failed} failed"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with _existing_broker(args.broker) as broker:
        broker.reclaim_expired()
        stats = broker.stats()
        failed = broker.failed_jobs() if not args.json else []
    if args.json:
        print(json.dumps(stats, indent=1, sort_keys=True))
        return 0
    jobs = stats["jobs"]
    print(
        f"queue {args.broker}: {jobs['total']} jobs -- "
        f"{jobs['pending']} pending, {jobs['leased']} leased, "
        f"{jobs['done']} done ({stats['cache_hits']} from cache), "
        f"{jobs['failed']} failed"
    )
    print(
        f"  attempts: {stats['failed_attempts']} failed, "
        f"{stats['reclaims']} leases reclaimed from dead workers, "
        f"{stats['timeouts']} timeouts"
    )
    for w in stats["workers"]:
        age = time.time() - w["last_seen"]  # repro: noqa[RPR102] CLI status display only; never hashed or persisted
        print(
            f"  worker {w['worker']}: {w['jobs_done']} jobs done, "
            f"last seen {age:.0f} s ago"
        )
    for out in failed:
        failure = out.failure()
        detail = (
            f"{failure.error_type}: {failure.message}"
            if failure is not None
            else "?"
        )
        print(f"  FAILED {out.label or out.content_hash[:12]}: {detail}")
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    check_polling(args.poll, args.wait_timeout)
    deadline = (
        None if args.wait_timeout is None else time.monotonic() + args.wait_timeout
    )
    with _existing_broker(args.broker) as broker:
        while True:
            broker.reclaim_expired()
            counts = broker.counts()
            if counts.remaining == 0:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise ExecError(
                    f"drain timed out with {counts.remaining} jobs unfinished "
                    f"({counts.pending} pending, {counts.leased} leased)"
                )
            time.sleep(args.poll)
        failed = broker.failed_jobs()
    print(
        f"queue drained: {counts.done} done, {counts.failed} failed "
        f"of {counts.total} jobs"
    )
    for out in failed:
        failure = out.failure()
        detail = (
            f"{failure.error_type}: {failure.message}"
            if failure is not None
            else "?"
        )
        print(f"  FAILED {out.label or out.content_hash[:12]}: {detail}")
    return 1 if failed else 0


def _cmd_requeue(args: argparse.Namespace) -> int:
    with _existing_broker(args.broker) as broker:
        n = broker.requeue_failed()
    print(f"requeued {n} failed jobs in {args.broker}")
    return 0


def _add_broker_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--broker", required=True, metavar="PATH",
        help="queue database file (shared by submitters and workers)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.exec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser("worker", help="run one worker daemon loop")
    _add_broker_arg(worker)
    add_flags(
        worker, "--cache-dir", "--no-cache", "--poll", "--timeout", "--retry-backoff"
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable worker identity (default: <host>:<pid>)",
    )
    worker.add_argument(
        "--lease", type=float, default=None, metavar="S",
        help="lease duration; heartbeats extend it at a third of this "
        "(default: the broker's, 60 s)",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after completing N jobs",
    )
    worker.add_argument(
        "--exit-when-drained", action="store_true",
        help="exit once the queue holds no pending or leased jobs "
        "instead of polling forever",
    )
    worker.add_argument(
        "--verbose", action="store_true", help="print one line per job at exit"
    )
    worker.set_defaults(fn=_cmd_worker)

    submit = sub.add_parser("submit", help="enqueue a JSON list of job specs")
    _add_broker_arg(submit)
    submit.add_argument(
        "jobs",
        help="path to a JSON list of JobSpec.to_dict() objects "
        "(optional 'label' per entry); '-' reads stdin",
    )
    add_flags(submit, "--retries")
    submit.add_argument(
        "--max-reclaims", type=int, default=DEFAULT_MAX_RECLAIMS, metavar="N",
        help="how many dead-worker lease expiries a job survives before "
        "it is marked failed",
    )
    submit.set_defaults(fn=_cmd_submit)

    status = sub.add_parser("status", help="inspect queue and worker state")
    _add_broker_arg(status)
    status.add_argument(
        "--json", action="store_true",
        help="full machine-readable stats (CI artifacts)",
    )
    status.set_defaults(fn=_cmd_status)

    drain = sub.add_parser(
        "drain", help="wait until the queue holds no unfinished jobs"
    )
    _add_broker_arg(drain)
    add_flags(drain, "--poll", "--wait-timeout")
    drain.set_defaults(fn=_cmd_drain)

    requeue = sub.add_parser(
        "requeue", help="give every failed job a fresh attempt budget"
    )
    _add_broker_arg(requeue)
    requeue.set_defaults(fn=_cmd_requeue)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ExecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
