"""Tiny deterministic callables for executor tests and examples.

Real workloads live in :mod:`repro.sim.runner` (missions) and
:mod:`repro.experiments.jobs` (training/deployment); these functions
exist so the execution layer can be demonstrated -- and its tests can
exercise hashing, caching and pool transport -- without flying a drone
or training a network.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.errors import ExecError
from repro.exec.jobspec import JobSpec


def scaled_sum(values: Sequence[float], factor: float = 1.0) -> float:
    """``sum(values) * factor`` -- the smallest possible deterministic job.

    Example:
        >>> from repro.exec.demo import scaled_sum
        >>> scaled_sum([1.0, 2.0], factor=3.0)
        9.0
    """
    return float(sum(values)) * factor


def seeded_normals(
    n: int, seed: Optional[np.random.SeedSequence] = None
) -> List[float]:
    """``n`` standard-normal draws from the injected seed stream.

    Jobs built with ``seed_entropy``/``spawn_key`` receive ``seed`` as
    a spawned :class:`~numpy.random.SeedSequence`; the same provenance
    always produces the same floats, in any process.
    """
    rng = np.random.default_rng(seed)
    return [float(x) for x in rng.standard_normal(n)]


def run_each(jobs: Sequence[JobSpec]) -> List[Any]:
    """Run a block of jobs in one call (fails if any member raises)."""
    return [job.run() for job in jobs]


def sleepy_echo(value: float, sleep_s: float = 0.0) -> float:
    """Return ``value`` after sleeping -- a tunable-cost job for benches."""
    if sleep_s > 0.0:
        time.sleep(sleep_s)
    return value


def always_fails(message: str = "boom") -> None:
    """Raise ``ExecError(message)`` -- the error-propagation test job."""
    raise ExecError(message)


def counted_echo(token: str, marker_dir: str, sleep_s: float = 0.0) -> str:
    """Return ``token`` after dropping one marker file per *execution*.

    The result is deterministic (just ``token``), but every invocation
    leaves a uniquely-named file under ``marker_dir/token/`` as a side
    effect -- which is how exactly-once tests distinguish "every job
    ran once" from "every job has a result": with caching off, the
    marker count for a token IS its execution count, regardless of how
    many workers, retries or re-leases were involved.
    """
    if sleep_s > 0.0:
        time.sleep(sleep_s)
    directory = os.path.join(marker_dir, token)
    os.makedirs(directory, exist_ok=True)
    fd, _ = tempfile.mkstemp(prefix="exec-", dir=directory)
    os.close(fd)
    return token
