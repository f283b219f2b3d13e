"""Load sizing and the environment stamp.

:func:`cap_threads` must run before numpy is imported: BLAS reads its
thread count once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict

#: Thread-count variables of the BLAS/OpenMP builds numpy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: BLAS/OpenMP threads of a benchmark run, below the usable cores on
#: purpose. On a shared 2-vCPU host a second thread trained Table I only
#: about 4 % faster, but tied every matrix product to the slower of two
#: vCPUs, so a run followed whichever vCPU another tenant slowed. The process
#: pool of the ``campaign-serial`` check still gets every usable core.
BLAS_THREADS = 1

#: Variables that would change what the program does: the fault
#: injector and the shared cache directory. Runs never inherit them.
ISOLATED_VARS = ("REPRO_FAULT_PLAN", "REPRO_CACHE_DIR")


def usable_cores() -> int:
    """Cores this process may run on, never above ``nproc``."""
    total = os.cpu_count() or 1
    try:
        return max(1, min(len(os.sched_getaffinity(0)), total))
    except (AttributeError, OSError):  # no affinity API off Linux
        return total


def cap_threads(threads: int) -> Dict[str, str]:
    """Cap every BLAS/OpenMP pool at ``threads``; returns the settings."""
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return {var: os.environ[var] for var in THREAD_VARS}


def isolate() -> Dict[str, str]:
    """Drop :data:`ISOLATED_VARS` from the environment; returns what was set."""
    return {var: os.environ.pop(var) for var in ISOLATED_VARS if var in os.environ}


def stamp(seed: int, workload: str, cores: int, caps: Dict[str, str],
          removed: Dict[str, str]) -> Dict[str, Any]:
    """What the numbers were measured on (needs numpy and repro imported)."""
    import numpy as np

    from repro.experiments.reporting import machine_info

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):  # older numpy: no dict mode
        blas_info = {"name": "unknown"}
    return {
        "workload": workload,
        "seed": seed,
        "machine": machine_info(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_info,
        "thread_caps": caps,
        "usable_cores": cores,
        "environment_removed": sorted(removed),
    }
