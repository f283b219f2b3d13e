"""ASCII table/series rendering + machine metadata for the experiment harness."""

from __future__ import annotations

import os
import platform
from typing import Dict, List, Optional, Sequence, Union


def _cpu_model() -> Optional[str]:
    """Human CPU model string from ``/proc/cpuinfo``; ``None`` off-Linux."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def machine_info() -> Dict[str, Union[str, int, None]]:
    """Machine fingerprint stamped into ``BENCH_*.json`` reports.

    Benchmark numbers are meaningless without knowing what they ran on:
    ``cpu_count`` is the machine's total core count, while
    ``cpus_available`` is what the process may actually use
    (``sched_getaffinity`` -- CI runners and cgroup-limited containers
    often pin far fewer cores than the box has), and ``cpu_model``
    names the silicon.
    """
    try:
        available: Optional[int] = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux platforms
        available = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_available": available,
        "cpu_model": _cpu_model(),
    }


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = "") -> str:
    """Render a padded ASCII table."""
    cols = len(headers)
    for row in rows:
        if len(row) != cols:
            raise ValueError("row width disagrees with headers")
    widths = [
        max(len(str(headers[c])), max((len(str(r[c])) for r in rows), default=0))
        for c in range(cols)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def runs_note(runs: int, n_runs: int) -> str:
    """What a table cell averaged over ``runs`` of ``n_runs`` runs appends.

    Empty when every run survived, else e.g. ``" [1/2 runs]"``.
    """
    return "" if runs >= n_runs else f" [{runs}/{n_runs} runs]"


def ascii_series(times: Sequence[float], values: Sequence[float], width: int = 60, label: str = "") -> str:
    """Render a (time, value) series as a coarse ASCII sparkline block."""
    if len(times) != len(values):
        raise ValueError("times and values disagree")
    if not times:
        return label
    ramp = " .:-=+*#%@"
    n = min(width, len(values))
    idx = [int(i * (len(values) - 1) / max(n - 1, 1)) for i in range(n)]
    vmax = max(values) or 1.0
    chars = [ramp[min(len(ramp) - 1, int(values[i] / vmax * (len(ramp) - 1)))] for i in idx]
    header = f"{label} (0..{times[-1]:.0f}s, peak {vmax:.2f})" if label else ""
    return (header + "\n" if header else "") + "".join(chars)
