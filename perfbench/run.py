"""Run one benchmark workload and print its metrics as the last line of JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-serial --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced run and prints the per-layer metrics. The program under
test is imported from ``src/`` beside this directory; when it is
missing the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Program modules the workloads enter through; their import is set-up.
PROGRAM_MODULES = ("numpy", "repro.exec", "repro.sim", "repro.experiments.table1")

#: Seconds a pool worker still alive after the run gets to exit.
CHILD_GRACE_S = 10.0

WORKLOAD_NAMES = (
    "detector-train",
    "campaign-serial",
    "campaign-fleet",
)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    found = os.path.abspath(sys.modules["repro"].__file__)
    if not found.startswith(SRC + os.sep):
        raise ImportError(f"repro resolves to {found}, outside {SRC}")


def _import_sample() -> float:
    """Import time of the program modules in a fresh interpreter."""
    code = (
        "import importlib, time\n"
        "t0 = time.perf_counter()\n"
        f"for name in {PROGRAM_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [SRC, ROOT]
    from perfbench import env

    cores = env.usable_cores()
    caps = env.cap_threads(env.BLAS_THREADS)
    removed = env.isolate()
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from {SRC}: {exc}",
              file=sys.stderr)
        return 2

    from perfbench import runner
    from perfbench.workloads import WORKLOADS

    stamp = env.stamp(args.seed, args.workload, cores, caps, removed)
    print("perfbench env: " + json.dumps(stamp, sort_keys=True))
    scratch = runner.scratch_root()
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    wl = WORKLOADS[args.workload](args.seed, run_dir)
    try:
        if args.trace:
            spans = os.path.join(scratch, f"trace-{args.workload}-seed{args.seed}.npz")
            out = runner.trace(wl, args.seconds, spans, stamp)
            out.lines += runner.layer_table(out)
        else:
            out = runner.measure(wl, args.seconds, _import_sample)
            out.lines += [
                f"  {name:<16} {value:.6g} {unit}" for name, (value, unit) in out.metrics.items()
            ]
            failed_frac = 1.0 - out.metrics["completed_frac"][0]
            out.lines += [
                f"  items_per_s here is {wl.rate_name}",
                f"  failed_frac      {failed_frac:.6g} ratio (1 - completed_frac)",
            ]
    finally:
        wl.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    for child in multiprocessing.active_children():
        child.join(CHILD_GRACE_S)
        if child.is_alive():
            child.kill()
            child.join()
            out.problems.append(f"child process {child.pid} outlived the run")
    for line in out.lines:
        print(line)
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(out.result(), sort_keys=True))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
