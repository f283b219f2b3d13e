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
from repro.exec import Broker, RetryPolicy
from repro.exec.flags import add_flags, cache_from
from repro.experiments import FULL_SCALE, SMOKE_SCALE
from repro.experiments import fig3, fig5, fig6, table1, table2, table3, table4
from repro.obs import ProgressLine
from repro.sim.__main__ import CACHE_ACTIONS, cache_command, failure_line

#: Each experiment's ``run`` and the function that renders its result.
#: Every ``run`` takes a live ``progress`` callback and hands any other
#: keyword (here ``workers``, ``cache``, ``retry`` and ``keep_going``)
#: to its executor.
_EXPERIMENTS = {
    "table1": (table1.run, table1.format_table),
    "table2": (table2.run, table2.format_table),
    "table3": (table3.run, table3.format_table),
    "table4": (table4.run, table4.format_table),
    "fig3": (fig3.run, fig3.format_maps),
    "fig5": (fig5.run, fig5.format_table),
    "fig6": (fig6.run, fig6.format_figure),
}

#: The campaign-backed experiments, which also shard through
#: ``--broker``. Under ``keep_going`` a campaign aggregates over whichever
#: missions survived; a table built from per-width jobs has no
#: meaningful partial result, so it lets every job finish and then
#: fails naming each lost one.
_CAMPAIGNS = frozenset({"table3", "fig5", "fig6"})


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
    add_flags(
        parser, "--workers", "--cache-dir", "--no-cache", "--progress",
        "--retries", "--timeout", "--keep-going", "--broker", "--max-bytes",
        "--max-age",
    )
    args = parser.parse_args(argv)
    if args.names == ["list"]:
        for name in _EXPERIMENTS:
            print(name)
        return 0
    try:
        if args.names[0] == "cache":
            args.action = args.names[1] if len(args.names) > 1 else "stats"
            if args.action not in CACHE_ACTIONS:
                raise SimError(
                    f"unknown cache action {args.action!r} "
                    f"({', '.join(CACHE_ACTIONS)})"
                )
            return cache_command(args)
        names = list(_EXPERIMENTS) if args.names == ["all"] else args.names
        unknown = [n for n in names if n not in _EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiments: {', '.join(unknown)}")
        return _run(names, args)
    except (ExecError, ObsError, SimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(names, args) -> int:
    """Run and print each experiment of ``names``, in order.

    Returns 1 when a campaign lost missions (``--keep-going``): each
    gets a ``FAILED mission`` line after its experiment's output.
    """
    scale = FULL_SCALE if args.full else SMOKE_SCALE
    cache = cache_from(args)
    retry = RetryPolicy(max_attempts=args.retries, timeout_s=args.timeout)
    broker = Broker(args.broker) if args.broker else None
    if broker is not None:
        unsharded = [n for n in names if n not in _CAMPAIGNS]
        if unsharded:
            print(
                f"note: --broker only shards {', '.join(sorted(_CAMPAIGNS))}; "
                f"{', '.join(unsharded)} run in-process",
                file=sys.stderr,
            )
    lost = 0
    try:
        for name in names:
            start = time.time()
            hits = cache.hits if cache else 0
            misses = cache.misses if cache else 0
            line = ProgressLine(name) if args.progress else None
            knobs = dict(
                workers=args.workers, cache=cache, retry=retry, keep_going=args.keep_going
            )
            if name in _CAMPAIGNS:
                knobs.update(broker=broker)
            run, render = _EXPERIMENTS[name]
            try:
                result = run(scale, progress=line, **knobs)
                output = render(result)
            finally:
                if line is not None:
                    line.finish()
            print(f"\n===== {name} ({time.time() - start:.0f}s) =====")
            print(output)
            for failure in result.failures if name in _CAMPAIGNS else ():
                print(failure_line(failure))
                lost += 1
            if cache is not None:
                print(
                    f"[cache: {cache.hits - hits} hits, "
                    f"{cache.misses - misses} misses ({cache.directory})]"
                )
    finally:
        if broker is not None:
            broker.close()
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
