"""Tests of the benchmark itself, on tiny versions of its workloads.

The tiny workloads are subclasses that override only the inputs (the
campaigns, or the training scale); every pass, check and trace runs the
benchmark's own code.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), ROOT) if p not in sys.path]

from repro.experiments.config import ExperimentScale  # noqa: E402
from repro.sim import Campaign, GeneratedSpec, get_scenario  # noqa: E402

from perfbench import calibrate, checks, layers, nnref, runner, tracing  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    FAMILIES, FLEET_BLOCK, FLIGHT_TIME_S, KINDS, POLICIES, WORKLOADS, CampaignFleet,
    CampaignSerial, DetectorTrain, derive_seeds,
)

COUNT_METRICS = [name for name, unit, _ in layers.per_layer_metrics()
                 if unit != "s" and name != "trace.overhead"]


class TinyTrain(DetectorTrain):
    SCALE = ExperimentScale(
        train_images=4, finetune_images=2, test_images=2, pretrain_epochs=1,
        finetune_epochs=1, batch_size=4, widths=(0.5,), name="perfbench-tiny",
    )
    WEB_IMAGES = 8


class TinySerial(CampaignSerial):
    def make_campaigns(self):
        world = GeneratedSpec.create("random-apartment", seed=derive_seeds(1, self.seed, 2)[0])
        return [
            Campaign(name=f"tiny-serial-{kind}", scenarios=(get_scenario("paper-room"),),
                     generated=(world,), policies=POLICIES[:2], flight_time_s=3.0,
                     kind=kind, seed=self.seed)
            for kind in KINDS
        ]


class TinyFleet(CampaignFleet):
    def make_campaigns(self):
        scenarios = (get_scenario("paper-room"), get_scenario("dense-depot"))
        return [
            Campaign(name=f"tiny-fleet-{kind}", scenarios=scenarios, policies=POLICIES[:2],
                     speeds=(0.5,), flight_time_s=3.0, kind=kind, seed=self.seed)
            for kind in KINDS
        ]


TINY = {cls.name: cls for cls in (TinyTrain, TinySerial, TinyFleet)}


def _tiny(name, tmp_path, seed=3):
    return TINY[name](seed, str(tmp_path))


@pytest.fixture(scope="module")
def serial_pass(tmp_path_factory):
    wl = _tiny("campaign-serial", tmp_path_factory.mktemp("serial"))
    wl.build()
    done = wl.run_pass()
    yield wl, done
    wl.close()


def test_tiny_workloads_cover_every_workload():
    assert list(TINY) == list(WORKLOADS)
    assert all(issubclass(TINY[name], WORKLOADS[name]) for name in WORKLOADS)


@pytest.mark.parametrize("seed", [1, 602])
def test_inputs_of_the_command(tmp_path, seed):
    """The inputs the command runs (built, not flown or trained)."""
    serial, fleet = CampaignSerial(seed, str(tmp_path)), CampaignFleet(seed, str(tmp_path))
    serial.build()
    fleet.build()
    groups = [g for c in serial.campaigns for g in checks.fleet_groups(c)]
    assert serial.operations() == 40 and [len(g) for g in groups] == [2] * 20
    assert len({g[0].scenario.name for g in groups}) == 20
    for kind in KINDS:  # each policy flies a preset and one world of every family
        for policy in POLICIES:
            names = [s.scenario.name for c in serial.campaigns for s in c.missions()
                     if s.kind == kind and s.policy == policy]
            assert len(names) == 1 + len(FAMILIES)
            assert all(any(n.startswith(family) for n in names) for family, _ in FAMILIES)
    groups = [g for c in fleet.campaigns for g in checks.fleet_groups(c)]
    assert fleet.operations() == 48 and [len(g) for g in groups] == [12] * 4
    assert max(len(g) for g in groups) <= FLEET_BLOCK  # one fleet block per group
    specs = [s for c in serial.campaigns + fleet.campaigns for s in c.missions()]
    assert {s.flight_time_s for s in specs} == {FLIGHT_TIME_S}
    train = DetectorTrain(seed, str(tmp_path))
    assert train.web_set_size(train.choose_data_seed()) == DetectorTrain.WEB_IMAGES


# -- output checks fail on perturbed outputs ------------------------------


def test_campaign_checks_pass_on_real_output(serial_pass):
    wl, done = serial_pass
    for campaign, result in zip(wl.campaigns, done.result):
        assert checks.campaign_problems(campaign, result) == []
    assert wl.check([done]) == []


@pytest.mark.parametrize(
    "field, value",
    [("coverage", 1.5), ("detection_rate", -0.1), ("reachable_cells", 10 ** 9),
     ("frames_processed", 0), ("policy", "spiral"), ("collisions", -1)],
)
def test_perturbed_record_field_fails_check(serial_pass, field, value):
    wl, done = serial_pass
    campaign, result = wl.campaigns[0], done.result[0]  # the search campaign
    spec = campaign.missions()[0]
    bad = dataclasses.replace(result.records[0], **{field: value})
    assert checks.record_problems(spec, result.records[0]) == []
    assert checks.record_problems(spec, bad) != []


def test_dropping_coverage_series_fails_check(serial_pass):
    wl, done = serial_pass
    spec, record = wl.campaigns[0].missions()[0], done.result[0].records[0]
    series = list(record.series_coverage)
    k = max(i for i, c in enumerate(series) if c > 0.0)
    series[k:] = [series[k] / 2.0] * (len(series) - k)  # still in [0, 1]
    assert checks.record_problems(spec, record) == []
    bad = dataclasses.replace(record, series_coverage=tuple(series))
    assert [p for p in checks.record_problems(spec, bad) if "drops" in p]


def test_perturbed_campaign_json_fails_identity(serial_pass):
    _, done = serial_pass
    tampered = [done.output[0].replace('"coverage": 0.', '"coverage": 1.', 1)] + done.output[1:]
    assert checks.identical("x", done.output, done.output) == []
    assert checks.identical("x", tampered, done.output) != []


def test_missing_mission_fails_check(serial_pass):
    wl, done = serial_pass
    result = done.result[0]
    short = type(result)(result.campaign, result.campaign_hash, result.records[1:])
    assert checks.campaign_problems(wl.campaigns[0], short) != []


@pytest.mark.parametrize(
    "key",
    [("conv2d", (8, 3, 2, 1, 0), (2, 3, 12, 16)), ("conv2d", (6, 1, 1, 0, 1), (2, 4, 6, 8)),
     ("depthwise", (3, 2, 1, 0), (2, 5, 9, 12)), ("batchnorm", (), (2, 4, 5, 6)),
     ("relu6", (), (2, 3, 4, 5))],
)
def test_perturbed_layer_gradient_fails_check(key):
    assert nnref.check_layer(key, np.random.default_rng(0)) == []
    assert nnref.check_layer(key, np.random.default_rng(0), perturb=True) != []


def test_layer_shapes_come_from_the_detectors():
    images = np.random.default_rng(0).random((2, 3, 48, 64))
    keys = nnref.capture_layer_shapes((0.5,), images)
    assert {key[0] for key in keys} == {kind for kind, _ in nnref.CAPTURED}
    assert all(key[2][0] == 2 for key in keys)
    targets = nnref.capture_targets({})
    assert len(targets) == len(nnref.CAPTURED)
    assert tracing.missing_targets(targets) == []
    assert tracing.leftover_wrappers(targets) == []


# -- tracing ----------------------------------------------------------------


def _attributes():
    values = {}
    for target in layers.TARGETS:
        holder = tracing.resolve_owner(target.owner)
        raw = holder.__dict__.get(target.attr) if isinstance(holder, type) else None
        values[(target.owner, target.attr)] = raw if raw is not None else getattr(holder, target.attr)
    return values


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of every tiny workload, with the same seed."""
    before = _attributes()
    runs = {}
    for name in WORKLOADS:
        outs = []
        for k in range(2):
            tmp = tmp_path_factory.mktemp(f"{name}-{k}")
            wl = _tiny(name, tmp)
            try:
                outs.append(runner.trace(wl, 0.0, str(tmp / "spans.npz"), {"test": True}))
            finally:
                wl.close()
        runs[name] = outs
    return before, runs


def test_traced_runs_pass_their_checks(traced_runs):
    _, runs = traced_runs
    for name, outs in runs.items():
        for out in outs:
            assert out.problems == [], (name, out.problems)
            assert out.failed == 0


def test_no_wrapper_stays_installed(traced_runs):
    before, _ = traced_runs
    assert tracing.leftover_wrappers(layers.TARGETS) == []
    after = _attributes()
    for key, value in before.items():
        assert after[key] is value, key


def test_per_layer_counts_repeat_across_traced_runs(traced_runs):
    _, runs = traced_runs
    for name, (first, second) in runs.items():
        for metric in COUNT_METRICS:
            assert first.metrics[metric] == second.metrics[metric], (name, metric)
    serial = runs["campaign-serial"][0].metrics
    assert serial["sim.ticks"][0] > 0 and serial["policies.update.calls"][0] > 0
    assert runs["detector-train"][0].metrics["nn.conv.macs"][0] > 0
    assert runs["campaign-fleet"][0].metrics["geometry.cast_fleet.rays"][0] > 0


def test_self_times_are_nonnegative_and_within_the_wall_clock(tmp_path):
    wl = _tiny("campaign-fleet", tmp_path)
    wl.build()
    tracer = tracing.Tracer()
    wl.timer = lambda fn: tracing.traced(tracer, layers.TARGETS, layers.ROOT_SPAN, wl.name, fn)
    done = wl.run_pass()
    self_s = tracer.self_times()
    assert len(tracer) > 100 and tracer.open_spans == 0
    assert (self_s >= 0.0).all()
    assert self_s.sum() <= done.wall_s + 1e-9
    assert wl.name in tracer.requests
    assert any(r.startswith("fleet-block@") for r in tracer.requests)


def test_targets_gone_from_the_program_are_skipped_and_listed():
    gone = (tracing.Target("repro.nn.conv:Conv2d", "no_such_method", "x"),
            tracing.Target("repro.no_such_module", "f", "y"))
    targets = layers.TARGETS[:2] + gone
    assert tracing.missing_targets(layers.TARGETS) == []
    assert tracing.missing_targets(targets) == [
        "repro.nn.conv:Conv2d.no_such_method", "repro.no_such_module.f"]
    patches = tracing.install(targets, tracing.Tracer())
    try:
        assert len(patches) == 2
        assert len(tracing.leftover_wrappers(targets)) == 2
    finally:
        tracing.uninstall(patches)
    assert tracing.leftover_wrappers(targets) == []


def test_request_labels_record_no_spans_of_their_own():
    from repro.exec import JobSpec

    job = JobSpec(fn="math:sqrt", kwargs={"x": 4.0})
    tracer = tracing.Tracer()
    patches = tracing.install(layers.TARGETS, tracer)
    try:
        label = layers._job_request((job,), {})
    finally:
        tracing.uninstall(patches)
    assert label == f"job-{job.content_hash()[:12]}"
    assert len(tracer) == 0


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 2.0, 3.0, 5.0, 9.0, 10.0, 12.0])
    tracer.clock = lambda: next(clock)
    root = tracer.begin(tracer.name_id("root"))
    tracer.finish(tracer.begin(tracer.name_id("a")))
    b = tracer.begin(tracer.name_id("b"))
    tracer.finish(tracer.begin(tracer.name_id("c")))
    tracer.finish(b)
    tracer.finish(root)
    assert tracer.self_time_by_name() == {"root": 4.0, "a": 1.0, "b": 3.0, "c": 4.0}
    # Overlapping children (never produced by one thread) count once.
    for name, start, end in (("x", 13.0, 16.0), ("y", 14.0, 18.0)):
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(root)
        tracer.request.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    tracer.end[root] = 20.0
    assert tracer.self_time_by_name()["root"] == 20.0 - 8.0 - 5.0


# -- calibration ------------------------------------------------------------------


def test_clock_divides_a_region_by_the_median_slowdown_in_it():
    ref, every = calibrate.REFERENCE_S, calibrate.EVERY_S
    now = [0.0]
    kernel_s = iter([2 * ref, 9 * ref, 2 * ref])  # one run an interrupt slowed

    def kernel():
        now[0] += next(kernel_s)
        return 0.0

    clock = calibrate.Clock(kernel=kernel, clock=lambda: now[0])
    clock.start()
    now[0] += 3 * every
    clock.tick()  # due: the kernel runs
    now[0] += 0.5 * every
    clock.tick()  # not due
    now[0] += 0.5 * every
    clock.stop()
    clock.tick()  # outside a region
    assert clock.samples == pytest.approx([2 * ref, 9 * ref, 2 * ref])
    assert clock.wall_s == pytest.approx(4 * every)  # the kernel's time left out
    assert clock.ref_s == pytest.approx(4 * every / 2)  # median slowdown 2
    assert clock.slowdown() == pytest.approx(2.0)


def test_timed_region_reports_wall_without_the_kernel():
    now = [0.0]

    def kernel():
        now[0] += calibrate.REFERENCE_S
        return 0.0

    def work():
        now[0] += 2.0
        return "done"

    clock = calibrate.Clock(kernel=kernel, clock=lambda: now[0])
    assert calibrate.timed(clock, work) == ("done", pytest.approx(2.0))
    assert clock.ref_s == pytest.approx(2.0)  # the host ran at the reference pace


def test_reference_kernel_does_the_same_work_every_run():
    kernel = calibrate.Kernel()
    assert kernel() == kernel() == calibrate.Kernel()()


# -- the result and the contract ------------------------------------------------


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    wl = _tiny("campaign-serial", tmp_path)
    try:
        out = runner.measure(wl, 0.0, import_sample=lambda: 0.25)
    finally:
        wl.close()
    result = out.result()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [n for n, *_ in runner.END_TO_END] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["completed_frac"]["value"] == 1.0


def test_a_raising_workload_reports_its_operations_as_failed(tmp_path):
    class Broken(TinyFleet):
        def run_pass(self):
            raise RuntimeError("injected")

    out = runner.measure(Broken(1, str(tmp_path)), 0.0, import_sample=lambda: 0.1)
    result = out.result()
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["completed_frac"]["value"] == 0.0


def test_benchmark_json_names_match_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [cls.why for cls in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in runner.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.per_layer_metrics()
    ]


def test_traced_run_reports_every_per_layer_metric(traced_runs):
    _, runs = traced_runs
    names = [name for name, *_ in layers.per_layer_metrics()]
    for outs in runs.values():
        assert list(outs[0].result()["metrics"]) == names


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "{" not in proc.stdout
