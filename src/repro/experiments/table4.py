"""Table IV: power breakdown of the robotic platform.

The AI-deck draw comes from the same per-width deployment-plan job
Table II runs (:func:`repro.experiments.jobs.deployment_plan`): with a
shared result cache, whichever experiment runs first leaves the plan
behind for the other -- Table IV then derives the platform breakdown
without re-tracing the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.exec import ProgressCallback
from repro.experiments import jobs
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.reporting import ascii_table
from repro.hw import AIDeckPowerModel
from repro.hw.power import PlatformPowerBreakdown, platform_power_breakdown


@dataclass
class Table4Result:
    breakdown: PlatformPowerBreakdown
    ai_deck_w: float
    scale_name: str


def run(
    scale: Optional[ExperimentScale] = None,
    width: float = 1.0,
    progress: Optional[ProgressCallback] = None,
    **execution: Any,
) -> Table4Result:
    """Power breakdown with the given SSD running on the AI-deck;
    ``progress`` and ``execution`` go unchanged to the executor."""
    scale = scale or default_scale()
    [payload] = jobs.run_jobs([jobs.plan_job(width)], progress, **execution)
    plan = jobs.plan_from_dict(payload["plan"])
    ai_deck_w = AIDeckPowerModel().power_w(plan.performance)
    breakdown = platform_power_breakdown(ai_deck_w)
    return Table4Result(breakdown=breakdown, ai_deck_w=ai_deck_w, scale_name=scale.name)


def format_table(result: Table4Result) -> str:
    names = list(result.breakdown.components_w)
    pcts = result.breakdown.percentages()
    headers = [""] + names + ["Total"]
    power_row = ["Power [W]"] + [
        f"{result.breakdown.components_w[n]:.3f}" for n in names
    ] + [f"{result.breakdown.total_w:.2f}"]
    pct_row = ["Percentage"] + [f"{pcts[n]:.2f}%" for n in names] + ["100%"]
    return ascii_table(
        headers,
        [power_row, pct_row],
        title="Table IV: power breakdown of the robotic platform",
    )
