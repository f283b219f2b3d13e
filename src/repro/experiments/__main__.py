"""CLI entry: regenerate any of the paper's tables/figures.

Usage:
    python -m repro.experiments list
    python -m repro.experiments table2 fig5
    python -m repro.experiments all --full --workers 0
    python -m repro.experiments cache stats

Every experiment runs through the shared execution layer
(:mod:`repro.exec`): ``--workers`` fans independent jobs (missions,
per-width trainings) over a process pool, and results are cached under
``.repro-cache`` (``--cache-dir`` / ``$REPRO_CACHE_DIR`` override) so
repeated runs -- and experiments sharing work, like Tables II and IV --
load finished jobs instead of recomputing them. ``--no-cache`` opts out.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ExecError, ObsError, SimError
from repro.exec import Broker, RetryPolicy, open_cache
from repro.experiments import FULL_SCALE, SMOKE_SCALE
from repro.experiments import fig3, fig5, fig6, table1, table2, table3, table4
from repro.obs import ProgressLine

# Every experiment accepts the shared executor knobs: a worker-pool
# size, an optional persistent result cache, an optional live progress
# callback, and an optional retry policy. ``kg`` (--keep-going) only
# reaches the campaign-backed experiments: a table built from per-width
# jobs has no meaningful partial result, but a campaign aggregates over
# whichever missions survived.
_EXPERIMENTS = {
    "table1": lambda s, w, c, p, r, kg, b: table1.format_table(
        table1.run(s, workers=w, cache=c, progress=p, retry=r)
    ),
    "table2": lambda s, w, c, p, r, kg, b: table2.format_table(
        table2.run(s, workers=w, cache=c, progress=p, retry=r)
    ),
    "table3": lambda s, w, c, p, r, kg, b: table3.format_table(
        table3.run(
            s, workers=w, cache=c, progress=p, retry=r, keep_going=kg, broker=b
        )
    ),
    "table4": lambda s, w, c, p, r, kg, b: table4.format_table(
        table4.run(s, workers=w, cache=c, progress=p, retry=r)
    ),
    "fig3": lambda s, w, c, p, r, kg, b: fig3.format_maps(
        fig3.run(s, workers=w, cache=c, progress=p, retry=r)
    ),
    "fig5": lambda s, w, c, p, r, kg, b: fig5.format_table(
        fig5.run(
            s, workers=w, cache=c, progress=p, retry=r, keep_going=kg, broker=b
        )
    ),
    "fig6": lambda s, w, c, p, r, kg, b: fig6.format_figure(
        fig6.run(
            s, workers=w, cache=c, progress=p, retry=r, keep_going=kg, broker=b
        )
    ),
}

#: Experiments that can shard through ``--broker`` (campaign-backed).
_BROKER_AWARE = frozenset({"table3", "fig5", "fig6"})


def _cmd_cache(names, args) -> int:
    """``cache stats|clear|evict``, run by the ``repro.sim`` CLI's one copy."""
    from repro.sim.__main__ import CACHE_ACTIONS
    from repro.sim.__main__ import main as sim_main

    action = names[1] if len(names) > 1 else "stats"
    if action not in CACHE_ACTIONS:
        print(
            f"error: unknown cache action {action!r} ({', '.join(CACHE_ACTIONS)})",
            file=sys.stderr,
        )
        return 2
    argv = ["cache", action]
    for flag, value in (
        ("--cache-dir", args.cache_dir),
        ("--max-bytes", args.max_bytes),
        ("--max-age", args.max_age),
    ):
        if value is not None:
            argv += [flag, value]
    return sim_main(argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    parser.add_argument(
        "names",
        nargs="+",
        help=(
            "experiment names (table1..table4, fig3, fig5, fig6), 'all', "
            "'list', or 'cache stats'/'cache clear'/'cache evict'"
        ),
    )
    parser.add_argument(
        "--full", action="store_true", help="paper-scale runs (slow)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-pool size for the experiment jobs; 0 = all cores",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always recompute; neither read nor write the result cache",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live single-line job progress (done/total, hits vs executed, ETA)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="attempts per job (1 = no retries); only transient failures "
        "(crashed workers, timeouts, flaky I/O) are retried",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-attempt wall-clock budget per job",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="campaign-backed experiments (table3, fig5, fig6) aggregate "
        "over the missions that survived instead of aborting on the "
        "first exhausted one",
    )
    parser.add_argument(
        "--broker", default=None, metavar="PATH",
        help="campaign-backed experiments (table3, fig5, fig6) shard "
        "their missions through this queue database; drain with "
        "`python -m repro.exec worker --broker PATH` (byte-identical "
        "results)",
    )
    parser.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="for `cache evict`: byte budget (k/M/G suffixes ok)",
    )
    parser.add_argument(
        "--max-age", default=None, metavar="AGE",
        help="for `cache evict`: drop entries last used longer ago than "
        "this (s/m/h/d suffixes ok)",
    )
    args = parser.parse_args(argv)
    if args.names == ["list"]:
        for name in _EXPERIMENTS:
            print(name)
        return 0
    if args.names[0] == "cache":
        return _cmd_cache(args.names, args)
    names = list(_EXPERIMENTS) if args.names == ["all"] else args.names
    unknown = [n for n in names if n not in _EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    try:
        return _run(names, args)
    except (ExecError, ObsError, SimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(names, args) -> int:
    """Run and print each experiment of ``names``, in order."""
    scale = FULL_SCALE if args.full else SMOKE_SCALE
    cache = open_cache(args.cache_dir, enabled=not args.no_cache)
    retry = RetryPolicy(max_attempts=args.retries, timeout_s=args.timeout)
    broker = Broker(args.broker) if args.broker else None
    if broker is not None:
        unsharded = [n for n in names if n not in _BROKER_AWARE]
        if unsharded:
            print(
                f"note: --broker only shards {', '.join(sorted(_BROKER_AWARE))}; "
                f"{', '.join(unsharded)} run in-process",
                file=sys.stderr,
            )
    try:
        for name in names:
            start = time.time()
            hits = cache.hits if cache else 0
            misses = cache.misses if cache else 0
            line = ProgressLine(name) if args.progress else None
            try:
                output = _EXPERIMENTS[name](
                    scale, args.workers, cache, line, retry, args.keep_going,
                    broker if name in _BROKER_AWARE else None,
                )
            finally:
                if line is not None:
                    line.finish()
            print(f"\n===== {name} ({time.time() - start:.0f}s) =====")
            print(output)
            if cache is not None:
                print(
                    f"[cache: {cache.hits - hits} hits, "
                    f"{cache.misses - misses} misses ({cache.directory})]"
                )
    finally:
        if broker is not None:
            broker.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
