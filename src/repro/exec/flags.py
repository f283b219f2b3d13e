"""Execution flags shared by the command-line interfaces.

``python -m repro.sim``, ``python -m repro.experiments`` and
``python -m repro.exec`` configure the same
:class:`~repro.exec.executor.Executor`, so every execution flag they
share is declared here once, with one type, one default and one help
text. Each parser takes the flags it needs by spelling; what a flag
means for one CLI only is noted in the flag table of
``docs/execution.md``.

Example:
    >>> import argparse
    >>> parser = argparse.ArgumentParser()
    >>> add_flags(parser, "--cache-dir", "--no-cache", "--retries")
    >>> args = parser.parse_args(["--no-cache", "--retries", "3"])
    >>> args.retries, cache_from(args)
    (3, None)
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Optional

from repro.exec.cache import ResultCache, default_cache_dir

#: ``add_argument`` keywords of each shared flag, by spelling.
FLAGS: Dict[str, Dict[str, Any]] = {
    "--workers": dict(
        type=int, default=None, metavar="N",
        help="process-pool size; 0 = one worker per usable core "
        "(default: serial)",
    ),
    "--cache-dir": dict(
        default=None, metavar="DIR",
        help="result-cache directory, which also holds the flight traces "
        "(default: $REPRO_CACHE_DIR or .repro-cache)",
    ),
    "--no-cache": dict(
        action="store_true",
        help="always execute; neither read nor write the result cache",
    ),
    "--progress": dict(
        action="store_true",
        help="live single-line progress (done/total, cache hits vs "
        "executed, ETA)",
    ),
    "--retries": dict(
        type=int, default=1, metavar="N",
        help="attempts per job (1 = no retries); only transient failures "
        "(crashed workers, timeouts, flaky I/O) are retried",
    ),
    "--retry-backoff": dict(
        type=float, default=0.0, metavar="S",
        help="base delay before a retry, doubling per completed attempt "
        "(deterministic)",
    ),
    "--timeout": dict(
        type=float, default=None, metavar="S",
        help="per-attempt wall-clock budget per job; an attempt that "
        "overruns it is a transient failure",
    ),
    "--keep-going": dict(
        action="store_true",
        help="report a job that exhausts its attempts as failed instead "
        "of aborting the run",
    ),
    "--broker": dict(
        default=None, metavar="PATH",
        help="shard the jobs through this queue database, which "
        "`python -m repro.exec worker --broker PATH` daemons drain "
        "(byte-identical results)",
    ),
    "--poll": dict(
        type=float, default=0.2, metavar="S",
        help="seconds between queue polls",
    ),
    "--wait-timeout": dict(
        type=float, default=None, metavar="S",
        help="give up after this long without the queue draining "
        "(default: wait forever)",
    ),
    "--max-bytes": dict(
        default=None, metavar="SIZE",
        help="cache evict: byte budget for entries and their paired "
        "traces, least recently used evicted first (k/M/G suffixes, "
        "e.g. 500M)",
    ),
    "--max-age": dict(
        default=None, metavar="AGE",
        help="cache evict: drop entries last used longer ago than this "
        "(s/m/h/d suffixes, e.g. 30d)",
    ),
}


def add_flags(parser: argparse.ArgumentParser, *spellings: str) -> None:
    """Declare the shared flags ``spellings`` on ``parser``."""
    for spelling in spellings:
        parser.add_argument(spelling, **FLAGS[spelling])


def cache_from(args: argparse.Namespace) -> Optional[ResultCache]:
    """The cache ``--cache-dir`` names, or ``None`` under ``--no-cache``."""
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())
