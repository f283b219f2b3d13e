"""Table II: onboard performance of the SSDs on GAP8.

Params / MMAC are exact properties of the full-resolution architectures;
MAC-per-cycle, FPS and power come from the calibrated GAP8 models. Each
width's deployment plan is one execution-layer job
(:func:`repro.experiments.jobs.deployment_plan`), shared by content hash
with Table IV: whichever runs first leaves the plan in the cache for
the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.exec import ProgressCallback
from repro.experiments import jobs
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.reporting import ascii_table
from repro.hw import AIDeckPowerModel, DeploymentPlan


@dataclass
class Table2Row:
    """One SSD variant's onboard figures."""

    width: float
    params: int
    macs: int
    efficiency: float
    fps: float
    power_w: float


@dataclass
class Table2Result:
    rows: List[Table2Row]
    plans: Dict[float, DeploymentPlan]
    scale_name: str


def run(
    scale: Optional[ExperimentScale] = None,
    progress: Optional[ProgressCallback] = None,
    **execution: Any,
) -> Table2Result:
    """Deploy every width multiplier and collect the Table II columns;
    ``progress`` and ``execution`` go unchanged to the executor."""
    scale = scale or default_scale()
    payloads = jobs.run_jobs(jobs.plan_jobs(scale), progress, **execution)
    power = AIDeckPowerModel()
    rows = []
    plans = {}
    for width, payload in zip(scale.widths, payloads):
        plan = jobs.plan_from_dict(payload["plan"])
        plans[width] = plan
        rows.append(
            Table2Row(
                width=width,
                params=plan.cost.total_params,
                macs=plan.cost.total_macs,
                efficiency=plan.performance.efficiency_mac_per_cycle,
                fps=plan.performance.fps,
                power_w=power.power_w(plan.performance),
            )
        )
    return Table2Result(rows=rows, plans=plans, scale_name=scale.name)


def format_table(result: Table2Result) -> str:
    headers = ["SSD", "Parameters", "Operations", "Efficiency", "Throughput", "AI-deck power"]
    rows = [
        [
            f"{r.width:g}x",
            f"{r.params / 1e6:.1f}M",
            f"{r.macs / 1e6:.0f} MMAC",
            f"{r.efficiency:.1f} MAC/cyc",
            f"{r.fps:.1f} FPS",
            f"{r.power_w * 1e3:.1f} mW",
        ]
        for r in result.rows
    ]
    return ascii_table(headers, rows, title="Table II: SSD CNNs' onboard performance")
