"""SQLite-backed distributed work queue for execution-layer jobs.

The :class:`Broker` turns the execution layer into a multi-process (and,
over a shared filesystem, multi-host) fleet: clients *submit*
:class:`~repro.exec.jobspec.JobSpec` descriptions keyed by their content
hash, worker daemons (:mod:`repro.exec.worker`) *lease* them one at a
time, run them through the exact same attempt/cache/fault machinery the
in-process :class:`~repro.exec.executor.Executor` uses, and *complete*
them with the JSON-normalized result. Everything durable lives in one
SQLite file in WAL mode, so any number of submitters and workers can
share a queue with nothing but a path.

Lease state machine (one row per job, keyed by content hash)::

    pending --lease()--> leased --complete()--> done
       ^                   |
       |                   +--fail(transient, attempts left)--+
       |                   +--lease expiry (dead worker)------+
       |                                                      |
       +------------------------------------------------------+
                           |
                           +--fail(permanent / exhausted)--> failed

A lease carries a wall-clock *deadline*; a live worker extends it with
:meth:`Broker.heartbeat` while its job runs. A worker that dies --
``kill -9``, OOM, power loss -- simply stops heartbeating, and the next
:meth:`Broker.lease` call reclaims the expired lease and hands the job
to someone else: work is re-leased, never lost. Completion is
exactly-once by construction: only the current leaseholder may complete
a job (``BEGIN IMMEDIATE`` transactions make lease transitions atomic),
a late worker whose lease was reclaimed has its result discarded, and
the ``leases`` audit table records every grant so tests can *assert*
that no two live leases ever coexisted.

Determinism is inherited from the job layer: results are stored as
canonical JSON of the same :func:`~repro.exec.jobspec.json_roundtrip`
normalization every executor path uses, so a broker-drained campaign is
byte-identical to a serial in-process run no matter how many workers
raced, died or retried.

Example:
    >>> import tempfile, os
    >>> from repro.exec import Broker, JobSpec
    >>> job = JobSpec(fn="repro.exec.demo:scaled_sum",
    ...               kwargs={"values": [1.0, 2.0], "factor": 3.0})
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     with Broker(os.path.join(tmp, "queue.db")) as broker:
    ...         report = broker.submit([job])
    ...         lease = broker.lease("worker-a")
    ...         ok = broker.complete("worker-a", lease.content_hash,
    ...                              lease.job.run())
    ...         outcome = broker.outcome(job.content_hash())
    >>> (report.submitted, ok, outcome.state, outcome.result)
    (1, True, 'done', 9.0)
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import sqlite3
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro import schemas
from repro.errors import ExecError
from repro.exec.executor import JobFailure, RetryPolicy
from repro.exec.jobspec import JobSpec, canonical_json, json_roundtrip

#: On-disk schema token, stored in ``meta``; a broker file written by a
#: different layout refuses to open instead of mis-parsing.
BROKER_SCHEMA = schemas.BROKER_SCHEMA

#: Default lease duration: how long a worker may go without a heartbeat
#: before its job is considered abandoned and re-leased.
DEFAULT_LEASE_S = 60.0

#: Default bound on how often one job may be reclaimed from dead
#: workers before the broker gives up on it. Distinct from the retry
#: policy's ``max_attempts`` (which bounds *in-worker* failures): a job
#: that hard-kills every worker that touches it must not crash-loop the
#: fleet forever.
DEFAULT_MAX_RECLAIMS = 5

#: How long concurrent writers wait on the SQLite lock before erroring.
_BUSY_TIMEOUT_MS = 30_000

#: Job states, in lifecycle order.
JOB_STATES = ("pending", "leased", "done", "failed")


class SubmitReport(NamedTuple):
    """What one :meth:`Broker.submit` call did."""

    submitted: int  #: new jobs enqueued as ``pending``
    duplicates: int  #: hashes already queued, leased or failed
    already_done: int  #: hashes whose result is already in the broker


class QueueCounts(NamedTuple):
    """Point-in-time per-state job counts."""

    pending: int
    leased: int
    done: int
    failed: int

    @property
    def total(self) -> int:
        return self.pending + self.leased + self.done + self.failed

    @property
    def remaining(self) -> int:
        """Jobs not yet in a terminal state."""
        return self.pending + self.leased


@dataclass(frozen=True)
class Lease:
    """One granted lease: the job plus everything the worker must honor.

    ``attempt`` is the 0-based execution attempt the worker should run
    (and feed to fault injection): completed failed attempts so far,
    counting both in-worker failures and reclaimed leases.
    """

    content_hash: str
    job: JobSpec
    attempt: int
    worker: str
    deadline: float
    lease_id: int


@dataclass(frozen=True)
class JobOutcome:
    """Terminal (or in-flight) view of one queued job."""

    content_hash: str
    state: str
    label: str
    attempts: int
    reclaims: int
    cached: bool
    timeouts: int = 0
    result: Any = None  #: JSON-normalized result (done) or failure dict (failed)

    def failure(self) -> Optional[JobFailure]:
        """The failure envelope, for ``failed`` jobs."""
        if self.state != "failed" or not JobFailure.is_failure_payload(self.result):
            return None
        return JobFailure.from_dict(self.result)


#: Column list every :class:`JobOutcome` query selects, in field order.
_OUTCOME_COLS = "hash, state, label, attempts, reclaims, cached, timeouts, result"


def _outcome_from_row(row: Tuple) -> JobOutcome:
    return JobOutcome(
        content_hash=row[0],
        state=row[1],
        label=row[2],
        attempts=row[3],
        reclaims=row[4],
        cached=bool(row[5]),
        timeouts=row[6],
        result=None if row[7] is None else json.loads(row[7]),
    )


def default_worker_id() -> str:
    """A worker identity unique per process: ``<host>:<pid>``."""
    return f"{socket.gethostname()}:{os.getpid()}"


class Broker:
    """SQLite-backed job queue with leases, heartbeats and retry.

    One ``Broker`` instance wraps one connection to the queue file;
    open as many instances as you like, in as many processes as you
    like -- WAL mode plus ``BEGIN IMMEDIATE`` transactions keep every
    state transition atomic and every completion exactly-once. Instances
    are thread-safe (an internal lock serializes the connection), which
    lets a worker's heartbeat thread share its broker handle.

    Args:
        path: queue database file, created on first open. ``:memory:``
            is rejected: a queue nobody else can open is not a queue.
        lease_s: default lease duration handed to :meth:`lease` and
            :meth:`heartbeat` when the caller does not override it.

    Raises:
        ExecError: when the file exists but is not a broker database,
            or was written by an incompatible schema version.
    """

    def __init__(self, path: str, lease_s: float = DEFAULT_LEASE_S) -> None:
        if not path or path == ":memory:":
            raise ExecError("broker needs a real database path (shared by workers)")
        if lease_s <= 0:
            raise ExecError(f"lease_s must be > 0, got {lease_s}")
        self.path = path
        self.lease_s = float(lease_s)
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(
            path, timeout=_BUSY_TIMEOUT_MS / 1000.0, check_same_thread=False
        )
        self._conn.isolation_level = None  # explicit BEGIN IMMEDIATE below
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._init_schema()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise ExecError(f"{path!r} is not a broker database: {exc}") from exc

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _init_schema(self) -> None:
        with self._write() as cur:
            cur.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            row = cur.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()
            if row is None:
                cur.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                    (BROKER_SCHEMA,),
                )
            elif row[0] != BROKER_SCHEMA:
                raise ExecError(
                    f"{self.path!r} was written by broker schema {row[0]!r}; "
                    f"this code speaks {BROKER_SCHEMA!r}"
                )
            cur.execute(
                """
                CREATE TABLE IF NOT EXISTS jobs (
                    hash TEXT PRIMARY KEY,
                    spec TEXT NOT NULL,
                    label TEXT NOT NULL DEFAULT '',
                    extra TEXT NOT NULL DEFAULT '{}',
                    state TEXT NOT NULL DEFAULT 'pending',
                    attempts INTEGER NOT NULL DEFAULT 0,
                    max_attempts INTEGER NOT NULL DEFAULT 1,
                    max_reclaims INTEGER NOT NULL DEFAULT 5,
                    reclaims INTEGER NOT NULL DEFAULT 0,
                    timeouts INTEGER NOT NULL DEFAULT 0,
                    completions INTEGER NOT NULL DEFAULT 0,
                    cached INTEGER NOT NULL DEFAULT 0,
                    worker TEXT,
                    deadline REAL,
                    not_before REAL NOT NULL DEFAULT 0,
                    enqueued_at REAL NOT NULL,
                    finished_at REAL,
                    result TEXT
                )
                """
            )
            cur.execute(
                "CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs(state)"
            )
            cur.execute(
                """
                CREATE TABLE IF NOT EXISTS leases (
                    id INTEGER PRIMARY KEY AUTOINCREMENT,
                    hash TEXT NOT NULL,
                    worker TEXT NOT NULL,
                    attempt INTEGER NOT NULL,
                    acquired_at REAL NOT NULL,
                    deadline REAL NOT NULL,
                    outcome TEXT
                )
                """
            )
            cur.execute(
                "CREATE INDEX IF NOT EXISTS idx_leases_hash ON leases(hash)"
            )
            cur.execute(
                """
                CREATE TABLE IF NOT EXISTS workers (
                    worker TEXT PRIMARY KEY,
                    pid INTEGER,
                    host TEXT,
                    started_at REAL NOT NULL,
                    last_seen REAL NOT NULL,
                    jobs_done INTEGER NOT NULL DEFAULT 0
                )
                """
            )

    @contextlib.contextmanager
    def _write(self) -> Iterator[sqlite3.Cursor]:
        """One immediate (write-locking) transaction under the lock.

        The block commits when it ends, by a ``return`` too, and rolls
        back when it raises; a ``COMMIT`` that fails rolls back as well.
        """
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                yield cur
                cur.execute("COMMIT")
            except BaseException:
                cur.execute("ROLLBACK")
                raise

    # -- submission -------------------------------------------------------

    def submit(
        self,
        jobs: Sequence[JobSpec],
        retry: Optional[RetryPolicy] = None,
        max_reclaims: int = DEFAULT_MAX_RECLAIMS,
        now: Optional[float] = None,
    ) -> SubmitReport:
        """Enqueue ``jobs``, deduplicating by content hash.

        A hash already present in the queue -- pending, leased, done or
        failed -- is never enqueued twice: the queue is idempotent, so
        any number of clients may submit the same campaign and exactly
        one execution happens. Hashes already ``done`` are reported as
        ``already_done`` (the submitter can collect their results
        immediately).

        Args:
            jobs: specs to enqueue; ``label`` and the ``extra`` side
                channel travel with the spec (neither affects the hash).
            retry: per-job attempt budget; ``max_attempts`` bounds
                in-worker failures exactly as it does for the in-process
                executor (``backoff_s`` becomes the re-lease delay).
            max_reclaims: how many expired leases the job survives
                before the broker marks it failed.
            now: clock override for tests.
        """
        if now is None:
            now = time.time()
        policy = retry or RetryPolicy()
        submitted = duplicates = already_done = 0
        with self._write() as cur:
            for job in jobs:
                content_hash = job.content_hash()
                row = cur.execute(
                    "SELECT state FROM jobs WHERE hash=?", (content_hash,)
                ).fetchone()
                if row is not None:
                    if row[0] == "done":
                        already_done += 1
                    else:
                        duplicates += 1
                    continue
                cur.execute(
                    """
                    INSERT INTO jobs (hash, spec, label, extra, state,
                                      max_attempts, max_reclaims, enqueued_at)
                    VALUES (?, ?, ?, ?, 'pending', ?, ?, ?)
                    """,
                    (
                        content_hash,
                        canonical_json(job.to_dict()),
                        job.label,
                        canonical_json(job.extra),
                        policy.max_attempts,
                        max_reclaims,
                        now,
                    ),
                )
                submitted += 1
        return SubmitReport(submitted, duplicates, already_done)

    # -- leasing ----------------------------------------------------------

    def lease(
        self,
        worker: str,
        lease_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[Lease]:
        """Atomically acquire the oldest available job, or ``None``.

        One ``BEGIN IMMEDIATE`` transaction first reclaims every expired
        lease (dead workers' jobs go back to ``pending`` -- or to
        ``failed`` once ``max_reclaims`` is exhausted), then grants the
        oldest ``pending`` job whose backoff window (``not_before``) has
        passed. The grant is recorded in the ``leases`` audit table.

        Args:
            worker: the caller's stable identity (see
                :func:`default_worker_id`).
            lease_s: lease duration; default is the broker's.
            now: clock override for tests.
        """
        if now is None:
            now = time.time()
        duration = self.lease_s if lease_s is None else float(lease_s)
        with self._write() as cur:
            self._reclaim_expired_locked(cur, now)
            row = cur.execute(
                """
                SELECT hash, spec, label, extra, attempts, reclaims
                FROM jobs
                WHERE state='pending' AND not_before <= ?
                ORDER BY enqueued_at, hash LIMIT 1
                """,
                (now,),
            ).fetchone()
            if row is None:
                return None
            content_hash, spec_text, label, extra_text, attempts, reclaims = row
            deadline = now + duration
            cur.execute(
                """
                UPDATE jobs SET state='leased', worker=?, deadline=?
                WHERE hash=?
                """,
                (worker, deadline, content_hash),
            )
            cur.execute(
                """
                INSERT INTO leases (hash, worker, attempt, acquired_at, deadline)
                VALUES (?, ?, ?, ?, ?)
                """,
                (content_hash, worker, attempts + reclaims, now, deadline),
            )
            lease_id = cur.lastrowid
        job = JobSpec.from_dict(json.loads(spec_text), label=label)
        extra = json.loads(extra_text)
        if extra:
            job = replace(job, extra=extra)
        return Lease(
            content_hash=content_hash,
            job=job,
            attempt=attempts + reclaims,
            worker=worker,
            deadline=deadline,
            lease_id=lease_id,
        )

    def _reclaim_expired_locked(self, cur: sqlite3.Cursor, now: float) -> int:
        """Return expired leases to the pool (caller holds the txn)."""
        rows = cur.execute(
            """
            SELECT hash, worker, reclaims, max_reclaims, attempts, label
            FROM jobs WHERE state='leased' AND deadline < ?
            """,
            (now,),
        ).fetchall()
        for content_hash, worker, reclaims, max_reclaims, attempts, label in rows:
            cur.execute(
                """
                UPDATE leases SET outcome='expired'
                WHERE hash=? AND worker=? AND outcome IS NULL
                """,
                (content_hash, worker),
            )
            if reclaims + 1 >= max_reclaims:
                failure = JobFailure(
                    job_hash=content_hash,
                    label=label,
                    fn=json.loads(
                        cur.execute(
                            "SELECT spec FROM jobs WHERE hash=?", (content_hash,)
                        ).fetchone()[0]
                    )["fn"],
                    error_type="LeaseExpired",
                    message=(
                        f"lease held by {worker!r} expired {reclaims + 1} "
                        f"time(s); worker presumed dead, reclaim budget "
                        f"({max_reclaims}) exhausted"
                    ),
                    attempts=attempts + reclaims + 1,
                    transient=True,
                    worker_crash=True,
                )
                cur.execute(
                    """
                    UPDATE jobs SET state='failed', worker=NULL, deadline=NULL,
                        reclaims=reclaims+1, finished_at=?, result=?
                    WHERE hash=?
                    """,
                    (now, canonical_json(failure.to_dict()), content_hash),
                )
            else:
                cur.execute(
                    """
                    UPDATE jobs SET state='pending', worker=NULL, deadline=NULL,
                        reclaims=reclaims+1
                    WHERE hash=?
                    """,
                    (content_hash,),
                )
        return len(rows)

    def reclaim_expired(self, now: Optional[float] = None) -> int:
        """Explicitly reclaim expired leases; returns how many.

        :meth:`lease` already does this on every call; this entry point
        exists for pollers (``drain``/``status``) so a queue with no
        live workers still notices dead ones.
        """
        if now is None:
            now = time.time()
        with self._write() as cur:
            n = self._reclaim_expired_locked(cur, now)
        return n

    def heartbeat(
        self,
        worker: str,
        content_hash: str,
        lease_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Extend ``worker``'s lease on ``content_hash``.

        Returns ``False`` when the lease is no longer held (expired and
        reclaimed, or completed elsewhere) -- the worker should abandon
        the job's result.
        """
        if now is None:
            now = time.time()
        duration = self.lease_s if lease_s is None else float(lease_s)
        with self._write() as cur:
            cur.execute(
                """
                UPDATE jobs SET deadline=?
                WHERE hash=? AND state='leased' AND worker=?
                """,
                (now + duration, content_hash, worker),
            )
            held = cur.rowcount == 1
            if held:
                cur.execute(
                    """
                    UPDATE leases SET deadline=?
                    WHERE hash=? AND worker=? AND outcome IS NULL
                    """,
                    (now + duration, content_hash, worker),
                )
            cur.execute(
                "UPDATE workers SET last_seen=? WHERE worker=?", (now, worker)
            )
        return held

    # -- completion -------------------------------------------------------

    def complete(
        self,
        worker: str,
        content_hash: str,
        result: Any,
        cached: bool = False,
        now: Optional[float] = None,
    ) -> bool:
        """Record ``result`` for a job ``worker`` holds the lease on.

        The result is normalized through the standard JSON round trip
        and stored as canonical JSON -- the same bytes an in-process
        executor would hand back. Returns ``False`` (and stores
        nothing) when the lease is no longer held: completion is
        exactly-once even when a presumed-dead worker finishes late.

        Args:
            cached: the worker served the result from its
                :class:`~repro.exec.cache.ResultCache` instead of
                executing -- bookkeeping for campaign reports.
        """
        if now is None:
            now = time.time()
        with self._write() as cur:
            cur.execute(
                """
                UPDATE jobs SET state='done', result=?, finished_at=?,
                    completions=completions+1, cached=?, worker=NULL,
                    deadline=NULL
                WHERE hash=? AND state='leased' AND worker=?
                """,
                (
                    canonical_json(json_roundtrip(result)),
                    now,
                    1 if cached else 0,
                    content_hash,
                    worker,
                ),
            )
            accepted = cur.rowcount == 1
            if accepted:
                cur.execute(
                    """
                    UPDATE leases SET outcome='completed'
                    WHERE hash=? AND worker=? AND outcome IS NULL
                    """,
                    (content_hash, worker),
                )
                cur.execute(
                    "UPDATE workers SET jobs_done=jobs_done+1, last_seen=? "
                    "WHERE worker=?",
                    (now, worker),
                )
        return accepted

    def fail(
        self,
        worker: str,
        content_hash: str,
        failure: JobFailure,
        retry_delay_s: float = 0.0,
        now: Optional[float] = None,
    ) -> str:
        """Record a failed attempt; returns the job's new state.

        Transient failures with attempts to spare go back to
        ``pending`` (``"requeued"``; ``retry_delay_s`` implements the
        policy's deterministic backoff via ``not_before``). Permanent
        or exhausted failures freeze the envelope in ``failed``. A
        worker that lost its lease gets ``"lost"`` and nothing changes.
        """
        if now is None:
            now = time.time()
        with self._write() as cur:
            row = cur.execute(
                """
                SELECT attempts, max_attempts FROM jobs
                WHERE hash=? AND state='leased' AND worker=?
                """,
                (content_hash, worker),
            ).fetchone()
            if row is None:
                return "lost"
            attempts, max_attempts = row
            attempts += 1
            timeout_bump = 1 if failure.timed_out else 0
            if failure.transient and attempts < max_attempts:
                cur.execute(
                    """
                    UPDATE jobs SET state='pending', worker=NULL,
                        deadline=NULL, attempts=?, timeouts=timeouts+?,
                        not_before=?
                    WHERE hash=?
                    """,
                    (attempts, timeout_bump, now + retry_delay_s, content_hash),
                )
                state = "requeued"
            else:
                cur.execute(
                    """
                    UPDATE jobs SET state='failed', worker=NULL,
                        deadline=NULL, attempts=?, timeouts=timeouts+?,
                        finished_at=?, result=?
                    WHERE hash=?
                    """,
                    (
                        attempts,
                        timeout_bump,
                        now,
                        canonical_json(failure.to_dict()),
                        content_hash,
                    ),
                )
                state = "failed"
            cur.execute(
                """
                UPDATE leases SET outcome=?
                WHERE hash=? AND worker=? AND outcome IS NULL
                """,
                ("failed" if state == "failed" else "requeued",
                 content_hash, worker),
            )
        return state

    # -- inspection -------------------------------------------------------

    def counts(self) -> QueueCounts:
        """Per-state job counts (one cheap indexed query)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        by_state = dict(rows)
        return QueueCounts(*(by_state.get(s, 0) for s in JOB_STATES))

    def outcome(self, content_hash: str) -> Optional[JobOutcome]:
        """The current view of one job, or ``None`` if unknown."""
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_OUTCOME_COLS} FROM jobs WHERE hash=?",
                (content_hash,),
            ).fetchone()
        return None if row is None else _outcome_from_row(row)

    def outcomes(self, hashes: Sequence[str]) -> Dict[str, JobOutcome]:
        """Outcomes of every *finished* job among ``hashes``."""
        out: Dict[str, JobOutcome] = {}
        with self._lock:
            cur = self._conn.cursor()
            for start in range(0, len(hashes), 500):
                chunk = list(hashes[start : start + 500])
                marks = ",".join("?" * len(chunk))
                for row in cur.execute(
                    f"""
                    SELECT {_OUTCOME_COLS} FROM jobs
                    WHERE hash IN ({marks}) AND state IN ('done', 'failed')
                    """,
                    chunk,
                ):
                    out[row[0]] = _outcome_from_row(row)
        return out

    def lease_history(self, content_hash: str) -> List[dict]:
        """Every lease ever granted on ``content_hash``, oldest first.

        The audit trail crash-recovery tests assert on: rows carry
        ``worker``, ``attempt``, ``acquired_at``, ``deadline`` and
        ``outcome`` (``completed``/``failed``/``requeued``/``expired``,
        or ``None`` while live).
        """
        with self._lock:
            rows = self._conn.execute(
                """
                SELECT id, worker, attempt, acquired_at, deadline, outcome
                FROM leases WHERE hash=? ORDER BY id
                """,
                (content_hash,),
            ).fetchall()
        return [
            {
                "id": r[0],
                "worker": r[1],
                "attempt": r[2],
                "acquired_at": r[3],
                "deadline": r[4],
                "outcome": r[5],
            }
            for r in rows
        ]

    def register_worker(
        self, worker: str, pid: Optional[int] = None, now: Optional[float] = None
    ) -> None:
        """Record (or refresh) a worker daemon's presence."""
        if now is None:
            now = time.time()
        if pid is None:
            pid = os.getpid()
        with self._write() as cur:
            cur.execute(
                """
                INSERT INTO workers (worker, pid, host, started_at, last_seen)
                VALUES (?, ?, ?, ?, ?)
                ON CONFLICT(worker) DO UPDATE SET
                    pid=excluded.pid, host=excluded.host, last_seen=excluded.last_seen
                """,
                (worker, pid, socket.gethostname(), now, now),
            )

    def workers(self) -> List[dict]:
        """Every worker ever registered, most recently seen first."""
        with self._lock:
            rows = self._conn.execute(
                """
                SELECT worker, pid, host, started_at, last_seen, jobs_done
                FROM workers ORDER BY last_seen DESC
                """
            ).fetchall()
        return [
            {
                "worker": r[0],
                "pid": r[1],
                "host": r[2],
                "started_at": r[3],
                "last_seen": r[4],
                "jobs_done": r[5],
            }
            for r in rows
        ]

    def stats(self) -> dict:
        """Queue-wide inventory for ``status --json`` and CI artifacts."""
        c = self.counts()
        with self._lock:
            agg = self._conn.execute(
                """
                SELECT COALESCE(SUM(attempts), 0), COALESCE(SUM(reclaims), 0),
                       COALESCE(SUM(timeouts), 0), COALESCE(SUM(completions), 0),
                       COALESCE(SUM(cached), 0)
                FROM jobs
                """
            ).fetchone()
            lease_rows = self._conn.execute(
                "SELECT COALESCE(outcome, 'live'), COUNT(*) FROM leases "
                "GROUP BY outcome"
            ).fetchall()
        return {
            "schema": BROKER_SCHEMA,
            "path": self.path,
            "jobs": {
                "pending": c.pending,
                "leased": c.leased,
                "done": c.done,
                "failed": c.failed,
                "total": c.total,
            },
            "failed_attempts": agg[0],
            "reclaims": agg[1],
            "timeouts": agg[2],
            "completions": agg[3],
            "cache_hits": agg[4],
            "leases": dict(sorted(lease_rows)),
            "workers": self.workers(),
        }

    def failed_jobs(self) -> List[JobOutcome]:
        """Every job currently in ``failed``, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_OUTCOME_COLS} FROM jobs "
                "WHERE state='failed' ORDER BY enqueued_at, hash"
            ).fetchall()
        return [_outcome_from_row(r) for r in rows]

    def requeue_failed(self, now: Optional[float] = None) -> int:
        """Give every ``failed`` job a fresh start; returns how many.

        Resets attempt/reclaim accounting and clears the stored failure
        envelope -- the operator's lever after fixing whatever killed
        the jobs (or the workers).
        """
        if now is None:
            now = time.time()
        with self._write() as cur:
            cur.execute(
                """
                UPDATE jobs SET state='pending', attempts=0, reclaims=0,
                    timeouts=0, worker=NULL, deadline=NULL, not_before=0,
                    finished_at=NULL, result=NULL
                WHERE state='failed'
                """
            )
            n = cur.rowcount
        return n

    def integrity_ok(self) -> bool:
        """Run SQLite's integrity check -- crash-recovery tests' gate."""
        with self._lock:
            row = self._conn.execute("PRAGMA integrity_check").fetchone()
        return row is not None and row[0] == "ok"
