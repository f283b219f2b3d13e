"""Fig. 6: coverage over time (mean/variance) + per-object detection times.

The paper's best configuration -- pseudo-random policy, SSD-MbV2-1.0,
0.5 m/s -- over ``n_runs`` flights: the coverage-vs-time band, and the
detection timeline of the six objects for the best run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.exec import Broker, ProgressCallback, ResultCache, RetryPolicy
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.reporting import ascii_series
from repro.mapping.coverage import CoverageSeries
from repro.mission.detector_model import DetectorOperatingPoint
from repro.sim import (
    Campaign,
    MissionRecord,
    OperatingPointSpec,
    get_scenario,
    paper_operating_point_spec,
    run_campaign,
)


@dataclass
class Fig6Result:
    grid_times: np.ndarray
    mean_coverage: np.ndarray
    var_coverage: np.ndarray
    best_run: Optional[MissionRecord]  #: highest detection rate; None if all lost
    runs: List[MissionRecord]
    scale_name: str
    failures: List[dict] = field(default_factory=list)  #: the campaign's lost missions


def run(
    scale: Optional[ExperimentScale] = None,
    operating_point: Optional[DetectorOperatingPoint] = None,
    speed: float = 0.5,
    seed: int = 900,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    retry: Optional[RetryPolicy] = None,
    keep_going: bool = False,
    broker: Optional[Broker] = None,
) -> Fig6Result:
    """Fly the paper's best configuration ``n_runs`` times via the engine."""
    scale = scale or default_scale()
    op_spec = (
        paper_operating_point_spec("1.0")
        if operating_point is None
        else OperatingPointSpec.from_operating_point("1.0", operating_point)
    )
    campaign = Campaign(
        name="fig6",
        scenarios=(get_scenario("paper-room"),),
        policies=("pseudo-random",),
        speeds=(speed,),
        ssd_widths=("1.0",),
        n_runs=scale.n_runs,
        flight_time_s=scale.flight_time_s,
        kind="search",
        seed=seed,
        operating_points=(op_spec,),
    )
    result = run_campaign(
        campaign, workers=workers, cache=cache, exec_progress=progress,
        retry=retry, keep_going=keep_going, broker=broker,
    )
    runs = result.records
    grid_times = np.linspace(0.0, scale.flight_time_s, 61)
    mean = var = np.empty(0)
    best = None
    if runs:
        mean, var = CoverageSeries.mean_and_variance(
            [r.build_series() for r in runs], grid_times
        )
        best = max(
            runs,
            key=lambda r: (r.detection_rate, -(r.time_to_full_detection() or np.inf)),
        )
    return Fig6Result(
        grid_times=grid_times,
        mean_coverage=mean,
        var_coverage=var,
        best_run=best,
        runs=runs,
        scale_name=scale.name,
        failures=result.failures,
    )


def format_figure(result: Fig6Result) -> str:
    title = (
        f"Fig. 6 (scale={result.scale_name}, {len(result.runs)} runs): "
        "pseudo-random @ 0.5 m/s with SSD-MbV2-1.0"
    )
    best = result.best_run
    if best is None:
        return f"{title}\nno flight survived: no figure"
    lines = [
        title,
        ascii_series(
            result.grid_times.tolist(),
            result.mean_coverage.tolist(),
            label="mean coverage",
        ),
        f"final coverage: {result.mean_coverage[-1]:.0%} "
        f"(variance {result.var_coverage[-1]:.1%})",
        f"best-run detection rate: {best.detection_rate:.0%}",
    ]
    for name, object_class, time_s, distance_m in best.events:
        lines.append(
            f"  {time_s:6.1f} s  {name} ({object_class}) at {distance_m:.2f} m"
        )
    full = best.time_to_full_detection()
    if full is not None:
        lines.append(f"all objects detected in {full:.0f} s")
    return "\n".join(lines)
