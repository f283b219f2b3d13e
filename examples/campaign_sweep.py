"""Multi-scenario campaign: one sweep across every registered room.

Demonstrates the ``repro.sim`` engine end-to-end: expand a cartesian
campaign over all registered scenarios and two policies, execute it
(optionally on a worker pool), aggregate detection rates per scenario,
and persist the columnar results as hash-keyed JSON.

Usage:
    python examples/campaign_sweep.py [--runs N] [--flight-time S]
                                      [--workers W] [--out DIR]
"""

import argparse

from repro.experiments.reporting import ascii_table
from repro.sim import Campaign, MissionRecord, iter_scenarios, run_campaign


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--flight-time", type=float, default=60.0)
    parser.add_argument(
        "--workers", type=int, default=0, help="pool size; 0 = all cores"
    )
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    campaign = Campaign(
        name="grand-tour",
        scenarios=tuple(iter_scenarios()),
        policies=("pseudo-random", "wall-following"),
        n_runs=args.runs,
        flight_time_s=args.flight_time,
        seed=7,
    )
    print(
        f"{len(campaign.missions())} missions "
        f"({len(campaign.scenarios)} scenarios), hash "
        f"{campaign.campaign_hash()[:12]}"
    )

    def progress(done, total, job, payload, cached):
        rec = MissionRecord.from_dict(payload)
        print(
            f"  [{done}/{total}] {rec.scenario}/{rec.policy}: "
            f"detection {rec.detection_rate:.0%}, coverage {rec.coverage:.0%}"
        )

    result = run_campaign(campaign, workers=args.workers, progress=progress)

    agg = result.aggregate(("scenario", "policy"))
    rows = [
        [scenario, policy, f"{stat.mean:.0%}", f"{stat.std:.0%}"]
        for (scenario, policy), stat in sorted(agg.items())
    ]
    print()
    print(
        ascii_table(
            ["scenario", "policy", "mean detection", "std"],
            rows,
            title="grand tour",
        )
    )
    path = result.save(args.out)
    print(f"\nresults written to {path}")


if __name__ == "__main__":
    main()
