"""Campaign execution: a thin adapter over :mod:`repro.exec`.

Missions are embarrassingly parallel -- each :class:`MissionSpec` is
self-contained and owns an independent seed stream -- so they map 1:1
onto execution-layer jobs: :func:`mission_job` turns a spec into a
:class:`~repro.exec.jobspec.JobSpec` whose payload is the spec's plain
dict (seed provenance lives on the job, not in the payload) and whose
content hash keys the persistent result cache. :func:`run_campaign`
hands the jobs to one :class:`~repro.exec.Executor` call whichever the
mode -- serial, pooled, broker-drained, fleet blocks (an executor
batch) or cache hits -- and all produce bit-identical records, merely
in a different wall-clock order; records are re-sorted by mission index
inside the :class:`~repro.sim.results.CampaignResult`, which makes the
paths indistinguishable downstream.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import schemas
from repro.errors import ExecError
from repro.exec import (
    Batch,
    Broker,
    Executor,
    JobFailure,
    JobSpec,
    ResultCache,
    RetryPolicy,
    SubmitReport,
    default_cache_dir,
    resolve_workers,
)
from repro.exec.executor import ProgressCallback as ExecProgressCallback
from repro.mission.closed_loop import ClosedLoopMission
from repro.mission.detector_model import CalibratedDetectorModel
from repro.mission.explorer import ExplorationMission
from repro.obs import MissionTrace, TraceStore
from repro.policies import PolicyConfig, make_policy
from repro.seeding import seed_provenance
from repro.sim.campaign import Campaign, MissionSpec
from repro.sim.results import CampaignResult, MissionRecord

#: Progress callback signature: ``(done, total, record)``.
ProgressCallback = Callable[[int, int, MissionRecord], None]

#: Code-version token of the mission job, now its own schema family
#: (``repro.sim.mission-job``): cache validity tracks mission
#: *semantics* (what numbers a flight draws and records), which can
#: change without the result-file format moving -- exactly what the
#: per-sensor seed-stream refactor did (v3). Result files still carry
#: :data:`~repro.sim.results.RESULT_SCHEMA`.
MISSION_JOB_VERSION = schemas.MISSION_JOB_VERSION


def fly_mission(
    spec: MissionSpec, record: bool = False
) -> Tuple[MissionRecord, Optional[MissionTrace]]:
    """Run one mission from its spec, optionally recording telemetry.

    Args:
        spec: a fully-specified mission from
            :meth:`~repro.sim.campaign.Campaign.missions`.
        record: when True, also return the flight's
            :class:`~repro.obs.MissionTrace`. Recording never changes
            the flight: the record is bit-identical either way.

    Returns:
        ``(record, trace)``; the trace is ``None`` unless ``record``.
    """
    scenario = spec.scenario
    room = scenario.build_room()
    policy = make_policy(spec.policy, PolicyConfig(cruise_speed=spec.speed))
    seed = spec.seed_sequence()
    if spec.kind == "explore":
        mission = ExplorationMission(
            room,
            policy,
            flight_time_s=spec.flight_time_s,
            start=scenario.start_position(),
            start_heading=scenario.start_heading,
            drone_config=scenario.drone_config(),
            record=record,
        )
    else:
        op = spec.operating_point()
        mission = ClosedLoopMission(
            room,
            scenario.build_objects(),
            policy,
            CalibratedDetectorModel(op),
            op,
            flight_time_s=spec.flight_time_s,
            start=scenario.start_position(),
            drone_config=scenario.drone_config(),
            record=record,
        )
    result = mission.run(seed=seed)
    return MissionRecord.from_flight(spec, result), mission.last_trace


def execute_mission(spec: MissionSpec) -> MissionRecord:
    """Run one mission from its spec.

    Args:
        spec: a fully-specified mission from
            :meth:`~repro.sim.campaign.Campaign.missions`.

    Returns:
        The flat :class:`~repro.sim.results.MissionRecord` outcome.
    """
    return fly_mission(spec)[0]


def run_mission_payload(
    spec: dict,
    seed: np.random.SeedSequence,
    trace_dir: Optional[str] = None,
    trace_key: Optional[str] = None,
) -> dict:
    """Execution-layer entry point: fly one mission from plain data.

    Args:
        spec: a seed-free :meth:`MissionSpec.to_dict` payload.
        seed: the mission's root stream, injected by the executor from
            the job's ``(seed_entropy, spawn_key)`` provenance.
        trace_dir: side-channel (job ``extra``, excluded from the job
            hash): when set, the flight is recorded and its trace
            stored here under ``trace_key``. Never influences the
            returned record.
        trace_key: content hash the trace is filed under -- the job's
            own hash, attached by :func:`mission_job`.

    Returns:
        The mission record as a plain dict
        (:meth:`~repro.sim.results.MissionRecord.to_dict`).
    """
    data = dict(spec)
    data["seed_entropy"], data["spawn_key"] = seed_provenance(seed)
    mission_spec = MissionSpec.from_dict(data)
    if trace_dir is None:
        return execute_mission(mission_spec).to_dict()
    outcome, trace = fly_mission(mission_spec, record=True)
    TraceStore(trace_dir).put(trace_key, trace)
    return outcome.to_dict()


def mission_job(spec: MissionSpec, trace_dir: Optional[str] = None) -> JobSpec:
    """Describe one mission as an execution-layer job.

    The payload is the spec's plain dict with the seed fields lifted
    into the job's provenance (the stream is part of the job identity,
    not of the world description) and the scenario's cosmetic
    ``description`` dropped -- rewording a preset's documentation must
    not re-fly every cached mission, mirroring
    :meth:`~repro.sim.campaign.Campaign.campaign_hash`.

    Args:
        spec: the mission to describe.
        trace_dir: when set, the job records its flight trace there,
            keyed by the job's own content hash. Rides in the job's
            ``extra`` side channel: the hash -- and therefore the
            cached result's identity -- is the same with and without
            recording.
    """
    payload = spec.to_dict()
    payload.pop("seed_entropy")
    payload.pop("spawn_key")
    payload["scenario"] = {
        k: v for k, v in payload["scenario"].items() if k != "description"
    }
    job = JobSpec(
        fn="repro.sim.runner:run_mission_payload",
        kwargs={"spec": payload},
        seed_entropy=spec.seed_entropy,
        spawn_key=spec.spawn_key,
        version=MISSION_JOB_VERSION,
        label=(
            f"{spec.scenario.name}/{spec.policy}"
            f"@{spec.speed:g} run {spec.run_idx}"
        ),
    )
    if trace_dir is not None:
        job = dataclasses.replace(
            job,
            extra={"trace_dir": trace_dir, "trace_key": job.content_hash()},
        )
    return job


def campaign_jobs(
    campaign: Campaign,
    record: bool = False,
    trace_dir: Optional[str] = None,
) -> List[JobSpec]:
    """The campaign's missions as execution-layer jobs, in mission order."""
    if record and trace_dir is None:
        trace_dir = default_cache_dir()
    return [
        mission_job(spec, trace_dir=trace_dir if record else None)
        for spec in campaign.missions()
    ]


def enqueue_campaign(
    campaign: Campaign,
    broker: Broker,
    record: bool = False,
    trace_dir: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> SubmitReport:
    """Submit every mission of ``campaign`` to ``broker`` and return.

    Submission is idempotent (the queue deduplicates by content hash),
    so any number of clients may enqueue the same campaign: missions
    already queued are skipped and missions already completed are
    reported as ``already_done``. Pair with ``python -m repro.exec
    worker`` daemons to drain, and :func:`run_campaign` with
    ``broker=`` to (re-)submit, wait and collect.
    """
    return broker.submit(
        campaign_jobs(campaign, record=record, trace_dir=trace_dir), retry=retry
    )


def _fleet_batch(
    specs: Sequence[MissionSpec], jobs: Sequence[JobSpec], size: int
) -> Batch:
    """Fleet blocks as an executor batch: one ``fly_fleet`` call per block."""
    from repro.sim import fleet

    spec_of = {job.content_hash(): spec for spec, job in zip(specs, jobs)}

    def fly_block(block: List[JobSpec]) -> List[dict]:
        records = fleet.fly_fleet([spec_of[job.content_hash()] for job in block])
        return [record.to_dict() for record in records]

    return Batch(
        size,
        key=lambda job: fleet.fleet_key(spec_of[job.content_hash()]),
        run=fly_block,
    )


def run_campaign(
    campaign: Campaign,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    cache: Optional[ResultCache] = None,
    record: bool = False,
    trace_dir: Optional[str] = None,
    exec_progress: Optional[ExecProgressCallback] = None,
    retry: Optional[RetryPolicy] = None,
    keep_going: bool = False,
    broker: Optional[Broker] = None,
    poll_s: float = 0.2,
    wait_timeout_s: Optional[float] = None,
    fleet_block: Optional[int] = None,
) -> CampaignResult:
    """Execute every mission of ``campaign`` and collect the results.

    Args:
        campaign: the sweep to run.
        workers: ``None``/``1`` for the serial path, ``0`` for one worker
            per CPU core, otherwise the pool size. If the pool cannot be
            started (restricted environments), the missions fly on the
            serial path with a :class:`RuntimeWarning` naming the
            requested count -- results are identical either way.
        progress: optional callback invoked after each finished mission
            with ``(done, total, record)``. Runs in the parent process;
            cache hits are reported first (in mission order), then
            executed missions in completion order.
        cache: optional persistent :class:`~repro.exec.ResultCache`.
            Missions whose job hash is already stored load instead of
            flying again; fresh results are stored for the next run.
            ``None`` (the default) disables caching.
        record: when True, every mission captures a flight trace stored
            beside its cache entry (keyed by the job hash). Recording
            rides the job's ``extra`` side channel, so hashes and
            results are identical with and without it; missions whose
            result is cached but whose trace is missing re-fly (the
            fresh result is byte-identical to the stored one).
        trace_dir: where traces go; defaults to the cache directory
            (or the default cache dir when ``cache`` is ``None``).
        exec_progress: optional executor-level callback with the raw
            ``(done, total, job, payload, cached)`` signature -- what
            the CLIs' live progress line consumes; may be combined
            with ``progress``.
        retry: optional :class:`~repro.exec.RetryPolicy` giving each
            mission multiple attempts, deterministic backoff and a
            per-attempt wall-clock timeout. ``None`` keeps the
            historical one-attempt, no-timeout behavior. Retries do not
            change results: a mission that succeeds on attempt three is
            byte-identical to one that succeeds on attempt one.
        keep_going: when ``True``, a mission that exhausts its attempts
            is dropped from ``records`` and reported in the result's
            ``failures`` (as a :class:`~repro.exec.JobFailure` dict
            with the mission ``index``) while its siblings fly on; when
            ``False`` (default) the first exhausted mission aborts the
            campaign.
        broker: a :class:`~repro.exec.Broker` to shard the campaign
            through instead of executing in-process: every mission is
            enqueued (idempotently -- resubmitting a partially-drained
            campaign only waits for the remainder), external ``python
            -m repro.exec worker`` daemons drain the queue, and this
            call polls until every mission finished. ``workers`` is
            ignored (fleet size is however many daemons are running)
            and a ``cache`` serves its hits before the rest is
            enqueued; results are byte-identical to a serial
            in-process run. ``retry`` and
            ``keep_going`` keep their meaning (attempt budgets are
            fixed at submit time).
        poll_s: broker mode only -- seconds between outcome polls.
        wait_timeout_s: broker mode only -- give up (``ExecError``)
            after this many seconds without the queue draining;
            ``None`` waits forever.
        fleet_block: when greater than 1, group cache-missed missions
            that share a (world, kind) into blocks of at most this many
            and step each block in lock-step through the vectorized
            :func:`~repro.sim.fleet.fly_fleet` instead of flying
            missions one by one. Purely a throughput knob: records,
            cache entries (one per mission, same job hashes) and saved
            result files are byte-identical to the serial path. Blocks
            fly unrecorded in this process, so ``record``, a ``broker``
            or more than one worker is rejected; ``None``/``1`` flies
            missions one by one.

    Returns:
        A :class:`~repro.sim.results.CampaignResult` with one record per
        mission, sorted by mission index. Its ``execution`` attribute
        holds the :class:`~repro.exec.ExecutionReport` (how many
        missions were cached vs. executed, plus failure/retry/timeout
        counters).

    Raises:
        ExecError: for a negative ``workers`` count, a ``poll_s`` or
            ``wait_timeout_s`` that is not positive, a ``fleet_block``
            below 1, ``fleet_block`` combined with ``record``, a broker
            or a pool, or a failed mission without ``keep_going``.

    Example:
        >>> from repro.sim import Campaign, get_scenario, run_campaign
        >>> campaign = Campaign(
        ...     name="doc",
        ...     scenarios=(get_scenario("paper-room"),),
        ...     flight_time_s=5.0,
        ...     seed=7,
        ... )
        >>> result = run_campaign(campaign)
        >>> len(result)
        1
        >>> result.records[0].scenario
        'paper-room'
        >>> result.execution.executed
        1
    """
    if fleet_block is not None and fleet_block < 1:
        raise ExecError(f"fleet_block must be >= 1, got {fleet_block}")
    batched = fleet_block is not None and fleet_block > 1
    if batched:
        clash = (
            "record=True" if record
            else "a broker" if broker is not None
            else f"workers={workers}" if resolve_workers(workers) > 1
            else None
        )
        if clash is not None:
            raise ExecError(
                f"fleet_block={fleet_block} cannot be combined with {clash}: "
                f"fleet blocks fly unrecorded, in this process"
            )
    store = None
    if record:
        if trace_dir is None:
            trace_dir = cache.directory if cache is not None else default_cache_dir()
        store = TraceStore(trace_dir)
    specs = campaign.missions()
    jobs = [
        mission_job(spec, trace_dir=trace_dir if record else None)
        for spec in specs
    ]
    executor = Executor(
        workers=workers,
        cache=cache,
        retry=retry,
        keep_going=keep_going,
        broker=broker,
        poll_s=poll_s,
        wait_timeout_s=wait_timeout_s,
        batch=_fleet_batch(specs, jobs, fleet_block) if batched else None,
    )
    combined = None
    if progress is not None or exec_progress is not None:
        def combined(done, total, job, payload, cached):
            if exec_progress is not None:
                exec_progress(done, total, job, payload, cached)
            if progress is not None and not isinstance(payload, JobFailure):
                progress(done, total, MissionRecord.from_dict(payload))
    refresh = None
    if store is not None:
        # A cached scalar result without its trace artifact must re-fly
        # (determinism makes the re-stored result byte-identical).
        def refresh(job):
            return not store.has(job.content_hash())
    payloads = executor.run(jobs, progress=combined, refresh=refresh)
    records = []
    failures = []
    for spec, payload in zip(specs, payloads):
        if isinstance(payload, JobFailure):
            failures.append({"index": spec.index, **payload.to_dict()})
        else:
            records.append(MissionRecord.from_dict(payload))
    return CampaignResult(
        campaign.to_dict(),
        campaign.campaign_hash(),
        records,
        execution=executor.last_report,
        failures=failures,
    )
