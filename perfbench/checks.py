"""Output checks that work out their reference inside the run.

Nothing here compares against numbers pinned for one seed: every check
is a range or bookkeeping invariant of the outputs, or the byte-identity
of two different execution paths over the same inputs, so it holds for
any workload seed. Each function returns a list of problems (empty when
the outputs are correct).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.sim import Campaign, CampaignResult, execute_mission, fleet_key, fly_fleet
from repro.sim.campaign import MissionSpec


def _in_unit(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def record_problems(spec: MissionSpec, record: Any) -> List[str]:
    """Range and bookkeeping checks of one mission record against its spec."""
    where = f"mission {spec.index} ({spec.scenario.name}/{spec.policy}/{spec.kind})"
    problems = []
    expected = {
        "index": spec.index,
        "scenario": spec.scenario.name,
        "kind": spec.kind,
        "policy": spec.policy,
        "speed": spec.speed,
        "run_idx": spec.run_idx,
        "flight_time_s": spec.flight_time_s,
    }
    for field, value in expected.items():
        if getattr(record, field) != value:
            problems.append(f"{where}: {field}={getattr(record, field)!r}, spec says {value!r}")
    for field in ("coverage", "coverage_raw", "detection_rate"):
        if not _in_unit(getattr(record, field)):
            problems.append(f"{where}: {field}={getattr(record, field)!r} not in [0, 1]")
    if not 0 < record.reachable_cells <= record.grid_cells:
        problems.append(
            f"{where}: reachable_cells={record.reachable_cells} not in "
            f"(0, grid_cells={record.grid_cells}]"
        )
    if record.collisions < 0:
        problems.append(f"{where}: negative collisions {record.collisions}")
    if not (math.isfinite(record.distance_flown_m) and record.distance_flown_m >= 0.0):
        problems.append(f"{where}: distance_flown_m={record.distance_flown_m!r}")
    coverage = list(record.series_coverage)
    if any(not 0.0 <= c <= 1.0 for c in coverage):
        problems.append(f"{where}: coverage series leaves [0, 1]")
    if any(b < a for a, b in zip(coverage, coverage[1:])):
        problems.append(f"{where}: coverage series drops")
    if list(record.series_times) != sorted(record.series_times):
        problems.append(f"{where}: coverage series times out of order")
    if spec.kind == "search":
        if record.frames_processed <= 0:
            problems.append(f"{where}: search mission processed no camera frames")
        if record.n_objects != len(spec.scenario.objects):
            problems.append(f"{where}: n_objects={record.n_objects}")
        found = round(record.detection_rate * record.n_objects)
        if len(record.events) != found or len({e[0] for e in record.events}) != found:
            problems.append(f"{where}: {len(record.events)} events for {found} detections")
    elif record.frames_processed or record.detection_rate or record.events:
        problems.append(f"{where}: exploration mission reports detections")
    return problems


def campaign_problems(campaign: Campaign, result: CampaignResult) -> List[str]:
    """Every mission accounted for once, and every record in range."""
    specs = campaign.missions()
    problems = []
    seen = [r.index for r in result.records] + [f["index"] for f in result.failures]
    if sorted(seen) != list(range(len(specs))):
        problems.append(
            f"{campaign.name}: {len(result.records)} records + "
            f"{len(result.failures)} failures do not cover {len(specs)} missions once"
        )
        return problems
    if result.campaign_hash != campaign.campaign_hash():
        problems.append(f"{campaign.name}: result carries another campaign's hash")
    for record in result.records:
        problems += record_problems(specs[record.index], record)
    return problems


def identical(label: str, got: Sequence[str], want: Sequence[str]) -> List[str]:
    """Byte-identity of two paths' ``CampaignResult.to_json()`` outputs."""
    problems = []
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            problems.append(f"{label}: campaign {k} JSON differs ({len(a)} vs {len(b)} bytes)")
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} campaigns vs {len(want)}")
    return problems


def fleet_groups(campaign: Campaign) -> List[List[MissionSpec]]:
    """The campaign's missions grouped by ``fleet_key`` (world, kind), in order.

    With a fleet block at least as large as every group, these are the
    blocks ``run_campaign(fleet_block=)`` flies.
    """
    groups: Dict[tuple, List[MissionSpec]] = {}
    for spec in campaign.missions():
        groups.setdefault(fleet_key(spec), []).append(spec)
    return list(groups.values())


def fleet_matches_serial(
    campaign: Campaign, result: CampaignResult, rng: np.random.Generator
) -> List[str]:
    """Re-fly one (world, kind) group through ``fly_fleet``; it must equal serial."""
    groups = fleet_groups(campaign)
    group = groups[int(rng.integers(len(groups)))]
    serial = {r.index: r.to_dict() for r in result.records}
    problems = []
    for spec, record in zip(group, fly_fleet(group)):
        if serial.get(spec.index) != record.to_dict():
            problems.append(f"{campaign.name}: fleet re-flight of mission {spec.index} differs")
    return problems


def serial_matches_fleet(
    campaign: Campaign, result: CampaignResult, rng: np.random.Generator
) -> List[str]:
    """Re-fly one member per fleet group serially; it must equal the fleet record."""
    fleet = {r.index: r.to_dict() for r in result.records}
    problems = []
    for members in fleet_groups(campaign):
        spec = members[int(rng.integers(len(members)))]
        if fleet.get(spec.index) != execute_mission(spec).to_dict():
            problems.append(f"{campaign.name}: serial re-flight of mission {spec.index} differs")
    return problems


def table1_problems(result: Any, widths: Sequence[float], images: np.ndarray,
                    boxes: Sequence[np.ndarray], labels: Sequence[np.ndarray]) -> List[str]:
    """mAPs in [0, 1] for every row and width; finite losses of the trained models."""
    problems = []
    for row in result.rows:
        if sorted(row.map_by_width) != sorted(widths):
            problems.append(f"Table I row {row.testing_dataset}/{row.format}: widths {sorted(row.map_by_width)}")
        for width, value in row.map_by_width.items():
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"Table I {row.testing_dataset}/{row.format} @{width:g}: mAP {value!r}")
    for width in widths:
        for name, model in (("float", result.detectors.get(width)),
                            ("int8", result.int8_detectors.get(width))):
            if model is None:
                problems.append(f"Table I: no {name} detector for width {width:g}")
                continue
            loss, (grad_conf, grad_loc) = model.compute_loss(images, boxes, labels)
            if not (math.isfinite(loss) and np.isfinite(grad_conf).all()
                    and np.isfinite(grad_loc).all()):
                problems.append(f"Table I {name} detector @{width:g}: loss {loss!r} not finite")
    return problems
