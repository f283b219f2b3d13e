"""Timed and traced runs of one workload, and the result they report.

An untraced run measures the end-to-end metrics: set-up (the median of
several samples of imports plus input construction), then passes until
the time budget is spent, reporting their throughput. Both are timed in
reference seconds (:mod:`perfbench.calibrate`). A traced run is separate:
it runs one pass untraced and then traced, pair after pair, reports the
per-layer metrics of the traced passes and the tracing overhead, and
checks that tracing changed no output and left no wrapper behind.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from perfbench import calibrate, layers, tracing
from perfbench.workloads import Pass, Workload, plain_timer

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("completed_frac", "ratio", "higher", 0.01),
    ("items_per_s", "items/s", "higher", 0.25),
)

#: Set-up samples per run (imports in a fresh interpreter plus one input
#: construction); ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one run reports: the final JSON line plus the human summary."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def result(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def keep(passes: List[Pass], done: Pass, out: Outcome) -> None:
    """Append ``done``, whose output must equal the first pass's.

    Only the first pass keeps its output and result objects, which the
    workload's checks read: holding every pass's would make peak memory
    grow with the number of passes that fit in the time budget.
    """
    if passes:
        first = passes[0]
        if not done.error and first.output is not None:
            if done.output != first.output:
                out.problems.append(f"pass {len(passes)} output differs from pass 0")
        done.output = None
        done.result = None
    passes.append(done)


def run_pass(wl: Workload) -> Pass:
    """One pass; an exception fails every operation the pass attempted."""
    t0 = time.perf_counter()
    try:
        return wl.run_pass()
    except Exception:  # noqa: BLE001 - reported as failed operations
        ops = wl.operations()
        return Pass(time.perf_counter() - t0, 0, ops, ops, error=traceback.format_exc())


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


def _setup(wl: Workload, clock: calibrate.Clock,
           import_sample: Callable[[], float]) -> List[Tuple[float, float]]:
    """(wall, reference) seconds of each set-up sample."""
    samples = []
    for _ in range(SETUP_REPEATS):
        clock.start()
        import_s = import_sample()
        t0 = time.perf_counter()
        wl.build()
        wall = import_s + time.perf_counter() - t0
        clock.stop()
        # The sample at the region's host speed.
        samples.append((wall, wall * clock.ref_s / max(clock.wall_s, 1e-12)))
    return samples


def _check(wl: Workload, passes: List[Pass], out: Outcome) -> None:
    out.problems += [f"pass failed:\n{p.error}" for p in passes if p.error]
    try:
        out.problems += wl.check(passes)
    except Exception:  # noqa: BLE001 - a crashing check is a failed check
        out.problems.append(f"output check raised:\n{traceback.format_exc()}")


def measure(wl: Workload, seconds: float, import_sample: Callable[[], float]) -> Outcome:
    """Untraced run: the end-to-end metrics.

    ``import_sample()`` times the program's imports in a fresh interpreter.
    """
    out = Outcome()
    clock = calibrate.Clock()
    setup = _setup(wl, clock, import_sample)
    wl.prepare()
    passes: List[Pass] = []
    wl.timer = functools.partial(calibrate.timed, clock)
    wl.progress = clock.tick
    start = time.perf_counter()
    try:
        while True:
            done = run_pass(wl)
            done.ref_s = clock.ref_s
            keep(passes, done, out)
            if done.error:
                break
            walls = [p.wall_s for p in passes]
            spent = time.perf_counter() - start
            if len(passes) >= wl.min_passes and spent + statistics.median(walls) > seconds:
                break
    finally:
        wl.timer = plain_timer
        wl.progress = None
    peak = _peak_rss_mb()
    _check(wl, passes, out)
    out.attempted = sum(p.attempted for p in passes)
    out.failed = sum(p.failed for p in passes)
    # Work over time across all passes, not a median of per-pass rates: on
    # a shared VM pass times are often bimodal (the host toggles between
    # two speeds), and a median jumps between the modes while this ratio
    # moves smoothly with the share of slow time.
    measured = [p for p in passes if not p.error]
    items = sum(p.items for p in measured)
    ref_s = sum(p.ref_s for p in measured)
    wall_s = sum(p.wall_s for p in measured)
    out.metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "peak_rss_mb": (peak, "MB"),
        "completed_frac": ((out.attempted - out.failed) / max(out.attempted, 1), "ratio"),
        "items_per_s": (items / ref_s if ref_s > 0 else 0.0, "items/s"),
    }
    walls = sorted(p.wall_s for p in passes)
    refs = sorted(p.ref_s for p in passes)
    out.lines += [
        f"{wl.name}: {len(passes)} passes, min/median/max pass time "
        f"{walls[0]:.3f}/{statistics.median(walls):.3f}/{walls[-1]:.3f} wall s, "
        f"{refs[0]:.3f}/{statistics.median(refs):.3f}/{refs[-1]:.3f} reference s",
        f"{wl.name}: host slowdown {clock.slowdown():.3f} (median of {len(clock.samples)} "
        f"kernel runs / {calibrate.REFERENCE_S} s); in wall seconds "
        f"{items / wall_s if wall_s > 0 else 0.0:.6g} items/s, "
        f"set-up {statistics.median(wall for wall, _ in setup):.4f} s",
    ]
    return out


def trace(wl: Workload, seconds: float, spans_path: str, meta: Dict[str, Any]) -> Outcome:
    """Traced run: the per-layer metrics and the tracing overhead.

    Every pass runs the same inputs, so traced and untraced outputs must agree.
    """
    out = Outcome()
    wl.build()
    wl.prepare()
    passes: List[Pass] = []
    tracers: List[tracing.Tracer] = []
    values: List[Dict[str, float]] = []
    signatures: List[Dict[str, float]] = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain = run_pass(wl)
        tracer = tracing.Tracer()
        wl.timer = functools.partial(
            tracing.traced, tracer, layers.TARGETS, layers.ROOT_SPAN, wl.name
        )
        try:
            traced = run_pass(wl)
        finally:
            wl.timer = plain_timer
        keep(passes, plain, out)
        keep(passes, traced, out)
        leftovers = tracing.leftover_wrappers(layers.TARGETS)
        if leftovers:
            out.problems.append(f"wrappers left installed: {', '.join(leftovers)}")
        if tracer.open_spans:
            out.problems.append(f"{tracer.open_spans} spans left open")
        if plain.error or traced.error:
            break
        summary = layers.summarize(tracer)
        summary["trace.overhead"] = traced.wall_s / plain.wall_s
        signature = layers.count_signature(tracer)
        if signatures and signature != signatures[0]:
            changed = sorted(k for k in set(signature) | set(signatures[0])
                             if signature.get(k) != signatures[0].get(k))
            out.problems.append(f"per-layer counts changed between passes: {changed[:8]}")
        tracers.append(tracer)
        values.append(summary)
        signatures.append(signature)
        spent = time.perf_counter() - start
        if spent + (time.perf_counter() - pair_start) > seconds:
            break
    _check(wl, passes, out)
    out.attempted = sum(p.attempted for p in passes)
    out.failed = sum(p.failed for p in passes)
    for name, unit, _ in layers.per_layer_metrics():
        samples = [v[name] for v in values]
        out.metrics[name] = (statistics.median(samples) if samples else 0.0, unit)
    missing = tracing.missing_targets(layers.TARGETS)
    if missing:
        out.lines.append(f"{wl.name}: not traced, gone from the program: {', '.join(missing)}")
    if tracers:
        tracing.save_spans(spans_path, tracers, json.dumps(meta, sort_keys=True))
        out.lines.append(
            f"{wl.name}: {len(tracers)} traced passes, "
            f"{sum(len(t) for t in tracers)} spans written to {spans_path}"
        )
        out.lines.append(
            f"{wl.name}: tracing overhead (traced / untraced wall clock) "
            f"{out.metrics['trace.overhead'][0]:.3f}"
        )
    return out


def layer_table(out: Outcome) -> List[str]:
    """The per-layer metrics as aligned text lines, largest self time first."""
    rows = sorted(out.metrics.items(), key=lambda kv: (kv[1][1] != "s", -kv[1][0], kv[0]))
    return [f"  {name:<34} {value:>16.6g} {unit}" for name, (value, unit) in rows]


def scratch_root() -> str:
    """Where runs write: ``.bench_out`` under the working directory."""
    path = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path
