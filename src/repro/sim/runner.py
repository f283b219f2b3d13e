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
import threading
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro import schemas
from repro.errors import ExecError
from repro.exec import (
    Batch,
    Broker,
    Executor,
    JobFailure,
    JobSpec,
    ProgressCallback,
    RetryPolicy,
    SubmitReport,
    default_cache_dir,
    resolve_workers,
)
from repro.mission.closed_loop import ClosedLoopMission
from repro.mission.detector_model import CalibratedDetectorModel
from repro.mission.explorer import ExplorationMission
from repro.obs import MissionTrace, TraceStore
from repro.policies import PolicyConfig, make_policy
from repro.seeding import seed_provenance
from repro.sim.campaign import Campaign, MissionSpec
from repro.sim.results import CampaignResult, MissionRecord
from repro.sim.scenario import Scenario
from repro.world.room import Room

#: Code-version token of the mission job, now its own schema family
#: (``repro.sim.mission-job``): cache validity tracks mission
#: *semantics* (what numbers a flight draws and records), which can
#: change without the result-file format moving -- exactly what the
#: per-sensor seed-stream refactor did (v3). Result files still carry
#: :data:`~repro.sim.results.RESULT_SCHEMA`.
MISSION_JOB_VERSION = schemas.MISSION_JOB_VERSION

#: The world the latest mission of this thread flew in, as ``world``:
#: ``(RoomSpec, Room)``.
_latest = threading.local()


def _mission_room(scenario: Scenario) -> Room:
    """The room of ``scenario``: the latest mission's when it flew an
    equal :class:`~repro.sim.scenario.RoomSpec`, else a new one.

    A room never changes once built, and everything it builds on first
    use (clear-cell rasters and their cell candidates, the reachable-cell
    masks of :func:`~repro.world.freespace.reachable_cell_mask`) depends
    on its geometry alone, so reusing it leaves every flight as it was.
    Only the latest world is kept, one per thread: memory does not grow
    over a campaign, and no two threads share a room.
    """
    latest = getattr(_latest, "world", None)
    if latest is not None and latest[0] == scenario.room:
        return latest[1]
    room = scenario.build_room()
    _latest.world = (scenario.room, room)
    return room


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
    room = _mission_room(scenario)
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
    progress: Optional[ProgressCallback] = None,
    record: bool = False,
    trace_dir: Optional[str] = None,
    fleet_block: Optional[int] = None,
    **execution: Any,
) -> CampaignResult:
    """Execute every mission of ``campaign`` and collect the results.

    Args:
        campaign: the sweep to run.
        progress: optional :meth:`Executor.run <repro.exec.Executor.run>`
            callback, one call per mission. Its ``payload`` is the
            record's plain dict (``MissionRecord.from_dict`` decodes it)
            or, for a mission lost under ``keep_going``, a ``JobFailure``.
        record: when True, every mission captures a flight trace stored
            beside its cache entry (keyed by the job hash). Recording
            rides the job's ``extra`` side channel, so hashes and
            results are identical with and without it; missions whose
            result is cached but whose trace is missing re-fly (the
            fresh result is byte-identical to the stored one).
        trace_dir: where traces go; defaults to the ``cache``
            directory, or the default cache dir without a cache.
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
        **execution: :class:`~repro.exec.Executor` settings (``workers``,
            ``cache``, ``retry``, ``keep_going``, ``broker``, ``poll_s``,
            ``wait_timeout_s``), passed through unchanged and documented
            there. No setting changes a record. With ``keep_going``, a
            lost mission is left out of ``records`` and listed in
            ``failures`` with its mission ``index``.

    Returns:
        A :class:`~repro.sim.results.CampaignResult` with one record per
        mission, sorted by mission index. Its ``execution`` attribute
        holds the :class:`~repro.exec.ExecutionReport` (how many
        missions were cached vs. executed, plus failure/retry/timeout
        counters).

    Raises:
        TypeError: for a setting ``Executor`` does not take.
        ExecError: for a ``fleet_block`` below 1 or combined with
            ``record``, a broker or a pool, for a setting ``Executor``
            rejects, or for a failed mission without ``keep_going``.

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
        workers = execution.get("workers")
        clash = (
            "record=True" if record
            else "a broker" if execution.get("broker") is not None
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
            cache = execution.get("cache")
            trace_dir = cache.directory if cache is not None else default_cache_dir()
        store = TraceStore(trace_dir)
    specs = campaign.missions()
    jobs = [
        mission_job(spec, trace_dir=trace_dir if record else None)
        for spec in specs
    ]
    executor = Executor(
        batch=_fleet_batch(specs, jobs, fleet_block) if batched else None,
        **execution,
    )
    refresh = None
    if store is not None:
        # A cached scalar result without its trace artifact must re-fly
        # (determinism makes the re-stored result byte-identical).
        def refresh(job):
            return not store.has(job.content_hash())
    payloads = executor.run(jobs, progress=progress, refresh=refresh)
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
