"""Columnar campaign results: aggregation and JSON persistence.

Every executed mission becomes a flat :class:`MissionRecord`; a
:class:`CampaignResult` holds the records column-wise-accessible plus the
campaign definition and its content hash. Results persist as a single
JSON document named after the hash, so re-running the identical campaign
overwrites (rather than duplicates) its file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import schemas

from repro.errors import SimError
from repro.mapping.coverage import CoverageSeries
from repro.mission.loop import FlightResult

#: Scalar per-mission columns exposed by :meth:`CampaignResult.columns`.
SCALAR_COLUMNS = (
    "index",
    "scenario",
    "kind",
    "policy",
    "speed",
    "ssd_width",
    "run_idx",
    "flight_time_s",
    "detection_rate",
    "coverage",
    "coverage_raw",
    "reachable_cells",
    "grid_cells",
    "collisions",
    "frames_processed",
    "n_objects",
    "distance_flown_m",
)

#: Result-file schema. v2 added the reachable-free-space coverage
#: columns (``coverage_raw``, ``reachable_cells``, ``grid_cells``) when
#: ``coverage`` switched to reachable-cell normalization; v1 files load
#: with backfilled defaults (see :meth:`MissionRecord.from_dict`).
RESULT_SCHEMA = schemas.RESULT_SCHEMA


@dataclass(frozen=True)
class MissionRecord:
    """Flat outcome of one mission, JSON- and pickle-friendly.

    ``events`` rows are ``(object_name, object_class, time_s,
    distance_m)`` tuples; ``series_times``/``series_coverage`` hold the
    coverage-over-time trace.

    ``coverage`` is visited cells over the cells *reachable* from the
    start pose; ``coverage_raw`` is the historical visited-over-all-cells
    fraction, and ``reachable_cells``/``grid_cells`` are the two
    denominators. Records loaded from pre-v2 result files backfill
    ``coverage_raw = coverage`` (the old column *was* the raw fraction)
    and zero cell counts (meaning "unknown").
    """

    index: int
    scenario: str
    kind: str
    policy: str
    speed: float
    ssd_width: str
    run_idx: int
    flight_time_s: float
    detection_rate: float
    coverage: float
    collisions: int
    frames_processed: int
    n_objects: int
    distance_flown_m: float
    coverage_raw: float = 0.0
    reachable_cells: int = 0
    grid_cells: int = 0
    events: Tuple[Tuple[str, str, float, float], ...] = ()
    series_times: Tuple[float, ...] = ()
    series_coverage: Tuple[float, ...] = ()

    def time_to_full_detection(self) -> Optional[float]:
        """Time of the last first-detection if every object was found."""
        if self.detection_rate < 1.0 or not self.events:
            return None
        return max(e[2] for e in self.events)

    def build_series(self) -> CoverageSeries:
        """Rebuild the live coverage-over-time series."""
        series = CoverageSeries()
        for t, c in zip(self.series_times, self.series_coverage):
            series.append(t, c)
        return series

    @classmethod
    def from_flight(cls, spec, result: FlightResult) -> "MissionRecord":
        """Record mission ``spec``'s flight; explore records count no objects."""
        series = result.series
        return cls(
            index=spec.index,
            scenario=spec.scenario.name,
            kind=spec.kind,
            policy=spec.policy,
            speed=spec.speed,
            ssd_width=spec.ssd_width,
            run_idx=spec.run_idx,
            flight_time_s=spec.flight_time_s,
            detection_rate=result.detection_rate,
            coverage=result.coverage,
            collisions=result.collisions,
            frames_processed=result.frames_processed,
            n_objects=len(spec.scenario.objects) if spec.kind == "search" else 0,
            distance_flown_m=result.distance_flown_m,
            coverage_raw=result.coverage_raw,
            reachable_cells=result.reachable_cells,
            grid_cells=result.grid_cells,
            events=tuple(
                (e.object_name, e.object_class, e.time_s, e.distance_m)
                for e in result.events
            ),
            series_times=tuple(series.times.tolist()),
            series_coverage=tuple(series.coverage.tolist()),
        )

    def to_dict(self) -> dict:
        """Plain-data form for JSON persistence.

        Shallow: every field is immutable, so ``dataclasses.asdict``'s
        deep copy of each coverage-series float would buy nothing.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "MissionRecord":
        """Inverse of :meth:`to_dict`; accepts pre-v2 records.

        A v1 record predates reachable-cell normalization: its
        ``coverage`` column *was* the raw all-cells fraction, so
        ``coverage_raw`` backfills from it; the cell counts, never
        persisted, backfill as 0 ("unknown").
        """
        data = dict(data)
        data["events"] = tuple(tuple(e) for e in data.get("events", ()))
        data["series_times"] = tuple(data.get("series_times", ()))
        data["series_coverage"] = tuple(data.get("series_coverage", ()))
        if "coverage_raw" not in data:
            data["coverage_raw"] = data.get("coverage", 0.0)
        data.setdefault("reachable_cells", 0)
        data.setdefault("grid_cells", 0)
        return cls(**data)


class AggregateStat(NamedTuple):
    """Mean/std/count of one value column over a group of runs."""

    mean: float
    std: float
    n: int


class CampaignResult:
    """The columnar result store of one executed campaign.

    Args:
        campaign: the campaign definition as a plain dict
            (:meth:`~repro.sim.campaign.Campaign.to_dict`).
        campaign_hash: stable content hash of the definition.
        records: one record per executed mission, in mission order.
        execution: optional :class:`~repro.exec.ExecutionReport` of the
            run that produced the records (how many missions were
            cached vs. freshly executed). Ephemeral run metadata: not
            persisted by :meth:`to_dict`/:meth:`save`, ``None`` on
            loaded or derived results.
        failures: missions that exhausted their attempts when the
            campaign ran with ``keep_going``: plain
            :class:`~repro.exec.JobFailure` dicts, each with the
            mission ``index`` attached. Persisted (a result file with
            holes must say so), sorted by index; empty for a clean run.

    Example:
        >>> from repro.sim import Campaign, get_scenario, run_campaign
        >>> campaign = Campaign(
        ...     name="doc",
        ...     scenarios=(get_scenario("paper-room"),),
        ...     n_runs=2,
        ...     flight_time_s=5.0,
        ...     seed=1,
        ... )
        >>> result = run_campaign(campaign)
        >>> stat = result.aggregate(("scenario",), value="coverage")[("paper-room",)]
        >>> stat.n
        2
        >>> sorted(result.columns())[:2]
        ['collisions', 'coverage']
    """

    def __init__(
        self,
        campaign: dict,
        campaign_hash: str,
        records: Sequence[MissionRecord],
        execution=None,
        failures: Sequence[dict] = (),
    ):
        self.campaign = campaign
        self.campaign_hash = campaign_hash
        self.records: List[MissionRecord] = sorted(records, key=lambda r: r.index)
        self.execution = execution
        self.failures: List[dict] = sorted(
            (dict(f) for f in failures), key=lambda f: f.get("index", -1)
        )

    @property
    def name(self) -> str:
        """Campaign name."""
        return self.campaign.get("name", "campaign")

    def __len__(self) -> int:
        return len(self.records)

    # -- columnar access --------------------------------------------------

    def column(self, field: str) -> list:
        """One scalar column across every record."""
        if field not in SCALAR_COLUMNS:
            raise SimError(f"unknown column {field!r}; known: {SCALAR_COLUMNS}")
        return [getattr(r, field) for r in self.records]

    def columns(self) -> Dict[str, list]:
        """Every scalar column, keyed by name."""
        return {field: self.column(field) for field in SCALAR_COLUMNS}

    def filter(self, **criteria) -> "CampaignResult":
        """Sub-result with the records matching every ``field=value``.

        The sub-result records the filter criteria in its campaign dict
        and derives a new content hash, so saving it cannot overwrite
        the parent campaign's persisted file with partial records.
        """
        for field in criteria:
            if field not in SCALAR_COLUMNS:
                raise SimError(f"unknown column {field!r}; known: {SCALAR_COLUMNS}")
        kept = [
            r
            for r in self.records
            if all(getattr(r, f) == v for f, v in criteria.items())
        ]
        campaign = dict(self.campaign)
        campaign["filter"] = {**campaign.get("filter", {}), **criteria}
        blob = json.dumps(
            {"parent": self.campaign_hash, "filter": campaign["filter"]},
            sort_keys=True,
            default=str,
        )
        derived_hash = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return CampaignResult(campaign, derived_hash, kept)

    # -- aggregation ------------------------------------------------------

    def aggregate(
        self,
        group_by: Sequence[str],
        value: str = "detection_rate",
    ) -> Dict[tuple, AggregateStat]:
        """Mean/std of ``value`` per unique ``group_by`` key tuple.

        Matches the paper's aggregation (mean and population std over
        the independent runs of one configuration).
        """
        for field in tuple(group_by) + (value,):
            if field not in SCALAR_COLUMNS:
                raise SimError(f"unknown column {field!r}; known: {SCALAR_COLUMNS}")
        groups: Dict[tuple, List[float]] = {}
        for r in self.records:
            key = tuple(getattr(r, f) for f in group_by)
            groups.setdefault(key, []).append(getattr(r, value))
        return {
            key: AggregateStat(
                mean=float(np.mean(vals)), std=float(np.std(vals)), n=len(vals)
            )
            for key, vals in groups.items()
        }

    def best(self, value: str = "detection_rate") -> MissionRecord:
        """The record maximizing ``value``."""
        if not self.records:
            raise SimError("empty campaign result")
        return max(self.records, key=lambda r: getattr(r, value))

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        """Full plain-data form: definition, hash and all records.

        The ``failures`` key only appears when there are failures, so
        clean runs stay byte-identical to results written before fault
        tolerance existed.
        """
        data = {
            "schema": RESULT_SCHEMA,
            "campaign_hash": self.campaign_hash,
            "campaign": self.campaign,
            "records": [r.to_dict() for r in self.records],
        }
        if self.failures:
            data["failures"] = list(self.failures)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def result_filename(self) -> str:
        """Canonical file name, keyed by the campaign hash.

        The campaign name is sanitized to a filename-safe slug so that
        names containing path separators cannot escape (or break) the
        target directory.
        """
        slug = re.sub(r"[^A-Za-z0-9._-]+", "-", self.name).strip("-.") or "campaign"
        return f"campaign-{slug}-{self.campaign_hash[:12]}.json"

    def save(self, directory: str) -> str:
        """Persist to ``directory`` (created if missing); returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, self.result_filename())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=1))
        return path

    @classmethod
    def load(cls, path: str) -> "CampaignResult":
        """Load a result previously written by :meth:`save`.

        Any ``repro.sim.campaign-result/*`` schema version is accepted;
        records from pre-v2 files backfill the reachable-coverage
        columns (see :meth:`MissionRecord.from_dict`).

        Raises:
            SimError: naming ``path`` and the problem, when the file
                cannot be read, is not JSON, is not a campaign result,
                or lacks a field (or holds an unknown one).
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SimError(f"{path}: cannot read a campaign result ({exc})") from None
        schema = data.get("schema", "") if isinstance(data, dict) else ""
        if not str(schema).startswith(schemas.family(RESULT_SCHEMA) + "/"):
            raise SimError(f"{path}: not a campaign result file (schema {schema!r})")
        try:
            return cls(
                campaign=data["campaign"],
                campaign_hash=data["campaign_hash"],
                records=[MissionRecord.from_dict(r) for r in data["records"]],
                failures=data.get("failures", ()),
            )
        except KeyError as exc:
            raise SimError(f"{path}: campaign result lacks {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SimError(f"{path}: malformed campaign result ({exc})") from None
