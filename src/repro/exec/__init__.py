"""Unified execution layer: jobs, executors and the result cache.

Everything the repository runs -- mission campaigns and training-bound
experiments alike -- flows through this package as
:class:`~repro.exec.jobspec.JobSpec` values: self-contained, picklable
descriptions of one deterministic computation. An
:class:`~repro.exec.executor.Executor` runs them serially, through a
supervised process pool, through a broker or in batched blocks, with
bit-identical results, and a persistent
:class:`~repro.exec.cache.ResultCache` keyed by each job's
:meth:`~repro.exec.jobspec.JobSpec.content_hash` makes reruns
incremental: work whose (callable, inputs, seed stream, code version)
already ran is loaded, not recomputed -- across campaigns, across
experiments, across processes.

The layer is fault-tolerant: a :class:`~repro.exec.executor.RetryPolicy`
bounds attempts, backoff and per-job wall clock; failures become
structured :class:`~repro.exec.executor.JobFailure` envelopes instead
of aborting sibling jobs; and :mod:`repro.exec.faults` injects
deterministic chaos (exceptions, worker crashes, corrupt cache writes)
to prove the recovery paths.

It also scales out: a :class:`~repro.exec.queue.Broker` is a
SQLite-backed work queue (leases, heartbeats, expiry reclaim,
exactly-once completion) that any number of
:class:`~repro.exec.worker.Worker` daemons -- ``python -m repro.exec
worker`` processes, on any host sharing the filesystem -- drain through
the very same attempt/cache/fault machinery, with byte-identical
results.

See ``docs/execution.md`` for the determinism contract, the retry and
failure semantics, and the cache directory layout.
"""

from repro.exec.cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA,
    TRACE_SUFFIX,
    CacheStats,
    EvictionReport,
    ResultCache,
    default_cache_dir,
)
from repro.exec.executor import (
    FAILURE_SCHEMA,
    Batch,
    ExecutionReport,
    Executor,
    JobFailure,
    ProgressCallback,
    RetryPolicy,
    is_transient,
    resolve_workers,
)
from repro.exec.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec
from repro.exec.jobspec import (
    JobSpec,
    canonical_json,
    canonical_value,
    json_roundtrip,
)
from repro.exec.queue import (
    BROKER_SCHEMA,
    Broker,
    JobOutcome,
    Lease,
    QueueCounts,
    SubmitReport,
    default_worker_id,
)
from repro.exec.worker import Worker, WorkerReport, run_worker

__all__ = [
    "BROKER_SCHEMA",
    "Batch",
    "Broker",
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA",
    "CacheStats",
    "EvictionReport",
    "ExecutionReport",
    "Executor",
    "FAILURE_SCHEMA",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "JobFailure",
    "JobOutcome",
    "JobSpec",
    "Lease",
    "ProgressCallback",
    "QueueCounts",
    "ResultCache",
    "RetryPolicy",
    "SubmitReport",
    "TRACE_SUFFIX",
    "Worker",
    "WorkerReport",
    "canonical_json",
    "canonical_value",
    "default_cache_dir",
    "default_worker_id",
    "is_transient",
    "json_roundtrip",
    "resolve_workers",
    "run_worker",
]
