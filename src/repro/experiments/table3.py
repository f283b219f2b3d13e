"""Table III: closed-loop detection rate (6 objects, multiple runs).

Every combination of the two best SSDs (1.0x, 0.75x), the four policies
and the three flight speeds, each averaged over ``n_runs`` flights with
the paper's object layout. Detection uses the calibrated per-frame model
fed by the Table I/II characteristics (mAP, FPS) of each SSD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exec import ProgressCallback
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.fig5 import PAPER_SPEEDS
from repro.experiments.reporting import ascii_table, runs_note
from repro.mission.detector_model import (
    DetectorOperatingPoint,
    paper_operating_points,
)
from repro.policies import POLICY_NAMES
from repro.sim import Campaign, OperatingPointSpec, get_scenario, run_campaign


@dataclass
class Table3Result:
    #: (ssd_width_key, policy, speed) -> mean detection rate
    rates: Dict[Tuple[str, str, float], float]
    stddev: Dict[Tuple[str, str, float], float]
    n_runs: int
    scale_name: str
    widths: Tuple[str, ...]  #: the configured SSD widths, each with its rows
    speeds: Tuple[float, ...]  #: the configured speeds, a row per width each
    runs: Dict[Tuple[str, str, float], int]  #: ``rates`` keys -> surviving runs
    failures: List[dict] = field(default_factory=list)  #: the campaign's lost missions

    def best_configuration(self) -> Tuple[str, str, float]:
        return max(self.rates, key=self.rates.get)


def build_campaign(
    scale: Optional[ExperimentScale] = None,
    operating_points: Optional[Dict[str, DetectorOperatingPoint]] = None,
    widths: Tuple[str, ...] = ("1.0", "0.75"),
    speeds: Tuple[float, ...] = PAPER_SPEEDS,
    seed: int = 500,
) -> Campaign:
    """The Table III sweep as a :class:`~repro.sim.Campaign`."""
    scale = scale or default_scale()
    points = operating_points or paper_operating_points()
    return Campaign(
        name="table3",
        scenarios=(get_scenario("paper-room"),),
        policies=POLICY_NAMES,
        speeds=tuple(speeds),
        ssd_widths=tuple(widths),
        n_runs=scale.n_runs,
        flight_time_s=scale.flight_time_s,
        kind="search",
        seed=seed,
        operating_points=tuple(
            OperatingPointSpec.from_operating_point(w, points[w]) for w in widths
        ),
    )


def run(
    scale: Optional[ExperimentScale] = None,
    operating_points: Optional[Dict[str, DetectorOperatingPoint]] = None,
    widths: Tuple[str, ...] = ("1.0", "0.75"),
    speeds: Tuple[float, ...] = PAPER_SPEEDS,
    seed: int = 500,
    progress: Optional[ProgressCallback] = None,
    **execution: Any,
) -> Table3Result:
    """Sweep SSD x policy x speed through the campaign engine.

    Args:
        scale: experiment scale.
        operating_points: SSD characteristics; defaults to the paper's
            Table I/II values. Pass the measured Table 1 results to close
            the loop end-to-end on this library's own numbers.
        widths: which SSDs to fly (the paper flies the best two).
        speeds: mean flight speeds.
        seed: campaign root seed; every flight spawns an independent
            stream, so results do not depend on execution order.
        progress, **execution: go unchanged to
            :func:`~repro.sim.run_campaign` (``fleet_block``, ``record``
            and the executor settings); none changes a rate.
    """
    scale = scale or default_scale()
    campaign = build_campaign(scale, operating_points, widths, speeds, seed)
    result = run_campaign(campaign, progress=progress, **execution)
    agg = result.aggregate(("ssd_width", "policy", "speed"), value="detection_rate")
    return Table3Result(
        rates={key: stat.mean for key, stat in agg.items()},
        stddev={key: stat.std for key, stat in agg.items()},
        n_runs=scale.n_runs,
        scale_name=scale.name,
        widths=campaign.ssd_widths,
        speeds=campaign.speeds,
        runs={key: stat.n for key, stat in agg.items()},
        failures=result.failures,
    )


def format_table(result: Table3Result) -> str:
    """The detection-rate table, a row per configured (width, speed).

    A configuration without a surviving run reads ``-``, and one
    averaged over fewer than ``n_runs`` runs shows how many.
    """
    widths = sorted(
        set(result.widths) | {w for (w, _, _) in result.rates}, key=float, reverse=True
    )
    speeds = sorted(set(result.speeds) | {s for (_, _, s) in result.rates})
    headers = ["SSD", "Speed [m/s]"] + list(POLICY_NAMES)
    rows = []
    for width in widths:
        for speed in speeds:
            rows.append(
                [f"{width}x", f"{speed:g}"]
                + [
                    f"{result.rates[(width, p, speed)]:.0%}"
                    + runs_note(result.runs[(width, p, speed)], result.n_runs)
                    if (width, p, speed) in result.rates
                    else "-"
                    for p in POLICY_NAMES
                ]
            )
    return ascii_table(
        headers,
        rows,
        title=(
            f"Table III (scale={result.scale_name}, {result.n_runs} runs): "
            "average detection rate, 6 objects"
        ),
    )
