"""Fig. 3: occupancy heatmaps of the four exploration policies.

One 3-minute flight at 0.5 m/s per policy in the paper room; occupancy
time per 0.5 m cell, rendered as ASCII (the paper caps the color scale at
18 s). Each policy's flight is one execution-layer job
(:func:`repro.experiments.jobs.explore_policy`) -- pass ``workers=`` to
fly the four policies in parallel and ``cache=`` to reuse finished
heatmaps across runs. Every flight draws the identical seed stream the
original in-process loop used, so the figures are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exec import ProgressCallback
from repro.experiments import jobs
from repro.experiments.config import ExperimentScale, default_scale
from repro.mapping.occupancy import OccupancyGrid
from repro.policies import POLICY_NAMES


@dataclass
class Fig3Result:
    grids: Dict[str, OccupancyGrid]
    coverage: Dict[str, float]
    scale_name: str


def run(
    scale: Optional[ExperimentScale] = None,
    speed: float = 0.5,
    seed: int = 7,
    progress: Optional[ProgressCallback] = None,
    **execution: Any,
) -> Fig3Result:
    """Fly each policy once and collect its occupancy grid.

    The grids are rebuilt from the jobs' exact occupancy arrays
    (:meth:`~repro.mapping.occupancy.OccupancyGrid.from_occupancy`);
    the reported coverage is the mission's reachable-normalized value
    from the job payload. ``progress`` and ``execution`` go unchanged
    to the executor.
    """
    scale = scale or default_scale()
    job_list = [
        jobs.fig3_job(name, speed, scale.flight_time_s, seed)
        for name in POLICY_NAMES
    ]
    payloads = jobs.run_jobs(job_list, progress, **execution)
    grids = {}
    coverage = {}
    for name, payload in zip(POLICY_NAMES, payloads):
        grids[name] = jobs.rebuild_grid(payload)
        coverage[name] = payload["coverage"]
    return Fig3Result(grids=grids, coverage=coverage, scale_name=scale.name)


def format_maps(result: Fig3Result, cap_seconds: float = 18.0) -> str:
    """ASCII heatmaps, one block per policy ('.' = never visited)."""
    blocks = []
    for name, grid in result.grids.items():
        blocks.append(
            f"[{name}] coverage {result.coverage[name]:.0%} "
            f"(occupancy time capped at {cap_seconds:.0f}s)\n"
            + grid.render_ascii(cap_seconds)
        )
    return "\n\n".join(blocks)
