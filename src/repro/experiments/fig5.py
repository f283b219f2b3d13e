"""Fig. 5: mean coverage area per policy and flight speed.

12 configurations (4 policies x 3 speeds), ``n_runs`` flights of 3 min
each, reporting the mean coverage percentage -- the paper's bar chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exec import ProgressCallback
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.reporting import ascii_table, runs_note
from repro.policies import POLICY_NAMES
from repro.sim import Campaign, get_scenario, run_campaign

#: The paper's three mean flight speeds, m/s.
PAPER_SPEEDS = (0.1, 0.5, 1.0)


@dataclass
class Fig5Result:
    coverage: Dict[Tuple[str, float], float]  #: (policy, speed) -> mean coverage
    stddev: Dict[Tuple[str, float], float]
    n_runs: int
    scale_name: str
    speeds: Tuple[float, ...]  #: the configured speeds, one column each
    runs: Dict[Tuple[str, float], int]  #: (policy, speed) -> surviving runs
    failures: List[dict] = field(default_factory=list)  #: the campaign's lost missions

    def best_configuration(self) -> Tuple[str, float]:
        """(policy, speed) with the highest mean coverage."""
        return max(self.coverage, key=self.coverage.get)


def run(
    scale: Optional[ExperimentScale] = None,
    speeds: Tuple[float, ...] = PAPER_SPEEDS,
    seed: int = 100,
    progress: Optional[ProgressCallback] = None,
    **execution: Any,
) -> Fig5Result:
    """Sweep every policy x speed configuration via the campaign engine;
    ``progress`` and ``execution`` go unchanged to ``run_campaign``."""
    scale = scale or default_scale()
    campaign = Campaign(
        name="fig5",
        scenarios=(get_scenario("paper-room"),),
        policies=POLICY_NAMES,
        speeds=tuple(speeds),
        n_runs=scale.n_runs,
        flight_time_s=scale.flight_time_s,
        kind="explore",
        seed=seed,
    )
    result = run_campaign(campaign, progress=progress, **execution)
    agg = result.aggregate(("policy", "speed"), value="coverage")
    return Fig5Result(
        coverage={key: stat.mean for key, stat in agg.items()},
        stddev={key: stat.std for key, stat in agg.items()},
        n_runs=scale.n_runs,
        scale_name=scale.name,
        speeds=campaign.speeds,
        runs={key: stat.n for key, stat in agg.items()},
        failures=result.failures,
    )


def format_table(result: Fig5Result) -> str:
    """The coverage table, one column per configured speed.

    A configuration without a surviving run reads ``-``, and one
    averaged over fewer than ``n_runs`` runs shows how many.
    """
    speeds = sorted(set(result.speeds) | {s for (_, s) in result.coverage})
    headers = ["Policy"] + [f"{s:g} m/s" for s in speeds]
    rows = []
    for name in POLICY_NAMES:
        rows.append(
            [name]
            + [
                f"{result.coverage[(name, s)]:.0%} (±{result.stddev[(name, s)]:.0%})"
                + runs_note(result.runs[(name, s)], result.n_runs)
                if (name, s) in result.coverage
                else "-"
                for s in speeds
            ]
        )
    return ascii_table(
        headers,
        rows,
        title=(
            f"Fig. 5 (scale={result.scale_name}, {result.n_runs} runs): "
            "mean coverage area"
        ),
    )
