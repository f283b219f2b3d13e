"""Which program calls each layer's spans wrap, and the per-layer metrics.

Every target is a public function or method of one ``repro`` layer,
wrapped at the name its caller looks up (see :mod:`perfbench.tracing`).
The table below is the single source of both the wrappers and the
``per_layer`` metric list in ``BENCHMARK.json``; ``README.md`` in this
directory records which end-to-end metric each one should move.

Time metrics (``*_s``) are summed self times of one traced pass; count
metrics are recorded at the same call boundaries and repeat exactly for
a fixed workload seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from perfbench.tracing import Target, Tracer, unwrapped

# -- counters --------------------------------------------------------------


def _count_calls(key: str):
    def counter(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(key)

    return counter


def _count_conv(key: str):
    """Calls of a conv layer plus its MACs, from the layer's ``macs()``."""

    def counter(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        layer = args[0]
        n, _, out_h, out_w = result.shape
        tracer.count(key)
        tracer.count("nn.conv.macs", n * layer.macs(out_h, out_w))

    return counter


def _count_im2col(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("nn.im2col.bytes", result[0].nbytes)


def _count_rays(key: str, arg: int):
    def counter(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(key, len(args[arg]))

    return counter


def _count_cache_get(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("exec.cache.gets")
    if result[1]:
        tracer.count("exec.cache.hits")


def _count_executor(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    report = args[0].last_report
    if report is not None:
        tracer.count("exec.failed", report.failed)
        tracer.count("exec.retried", report.retried)


def _count_fleet(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    from repro.drone.crazyflie import CrazyflieConfig

    specs = args[0]
    tracer.count("sim.fleet.blocks")
    tracer.count("sim.fleet.members", len(specs))
    if specs:
        config = specs[0].scenario.drone_config() or CrazyflieConfig()
        dt = 1.0 / config.control_rate_hz
        tracer.count("sim.ticks", sum(int(round(s.flight_time_s / dt)) for s in specs))


def _fleet_block(args: tuple, kwargs: dict) -> str:
    specs = args[0]
    first = specs[0].index if specs else -1
    return f"fleet-block@{first}x{len(specs)}"


def _job_request(args: tuple, kwargs: dict) -> str:
    job = args[0]
    if job.fn.endswith(":train_width"):
        return f"table1-width-{job.kwargs['width']:g}"
    # The original, so that labelling a request records no exec.hash span.
    content_hash = unwrapped(type(job), "content_hash")
    return f"job-{content_hash(job)[:12]}"


def _int8_mode(args: tuple, kwargs: dict) -> bool:
    return args[0].mode == "quantize"


_JOBS = "repro.experiments.jobs"

#: Every wrapped call: (owner, attribute, span, extras).
TARGETS: Tuple[Target, ...] = (
    # repro.nn
    Target("repro.nn.conv:Conv2d", "forward", "nn.conv2d.forward",
           counter=_count_conv("nn.conv2d.calls")),
    Target("repro.nn.conv:Conv2d", "backward", "nn.conv2d.backward"),
    Target("repro.nn.conv:DepthwiseConv2d", "forward", "nn.depthwise.forward",
           counter=_count_conv("nn.depthwise.calls")),
    Target("repro.nn.conv:DepthwiseConv2d", "backward", "nn.depthwise.backward"),
    Target("repro.nn.norm:BatchNorm2d", "forward", "nn.batchnorm.forward"),
    Target("repro.nn.norm:BatchNorm2d", "backward", "nn.batchnorm.backward"),
    Target("repro.nn.act:ReLU6", "forward", "nn.relu6.forward"),
    Target("repro.nn.act:ReLU6", "backward", "nn.relu6.backward"),
    Target("repro.nn.conv", "im2col", "nn.im2col", counter=_count_im2col),
    Target("repro.nn.conv", "col2im", "nn.col2im"),
    Target("repro.nn.optim:RMSProp", "step", "nn.optim.step"),
    # repro.vision, repro.datasets, repro.quantization, repro.evaluation
    Target("repro.vision.ssd:SSDDetector", "compute_loss", "vision.ssd.loss"),
    Target("repro.vision.ssd:SSDDetector", "predict", "vision.ssd.predict"),
    Target(_JOBS, "make_openimages_like", "datasets.generate"),
    Target(_JOBS, "make_himax_like", "datasets.generate"),
    Target(_JOBS, "rebalance_with_translation", "datasets.generate"),
    Target("repro.vision.training", "photometric_augment", "datasets.augment"),
    Target("repro.quantization.qat:QATWeightQuantizer", "quantized_weights",
           "quantization.qat", context=True),
    Target(_JOBS, "quantize_detector", "quantization.convert"),
    Target("repro.experiments.table1", "quantize_detector", "quantization.convert"),
    Target("repro.quantization.int8:ActivationQuantShim", "forward",
           "quantization.int8_forward", when=_int8_mode),
    Target(_JOBS, "evaluate_map", "evaluation.map"),
    # repro.geometry
    Target("repro.geometry.raycast:RayCaster", "hit_distances", "geometry.cast_many",
           counter=_count_rays("geometry.cast_many.rays", 2)),
    Target("repro.geometry.raycast:RayCaster", "line_of_sight", "geometry.line_of_sight"),
    Target("repro.geometry.raycast:RayCaster", "line_of_sight_many",
           "geometry.line_of_sight"),
    Target("repro.geometry.raycast:RayCaster", "cast_fleet", "geometry.cast_fleet",
           counter=_count_rays("geometry.cast_fleet.rays", 1)),
    # repro.world
    Target("repro.world.room:Room", "is_free", "world.is_free",
           counter=_count_calls("world.is_free.calls")),
    Target("repro.world.room:Room", "is_free_many", "world.is_free_many"),
    Target("repro.sim.scenario:Scenario", "build_room", "world.build"),
    # repro.sensors, repro.drone, repro.mapping, repro.mission
    Target("repro.sensors.multiranger:MultiRangerDeck", "read_batched",
           "sensors.multiranger"),
    Target("repro.sensors.multiranger:MultiRangerDeck", "read", "sensors.multiranger"),
    Target("repro.sensors.camera:HimaxCamera", "observe", "sensors.camera",
           counter=_count_calls("sensors.camera.frames")),
    Target("repro.drone.crazyflie:Crazyflie", "step", "drone.step",
           counter=_count_calls("sim.ticks")),
    Target("repro.drone.dynamics:DroneDynamics", "step", "drone.dynamics"),
    Target("repro.mapping.mocap:MotionCaptureTracker", "observe", "mapping.mocap"),
    Target("repro.mapping.mocap:MotionCaptureTracker", "coverage", "mapping.mocap"),
    Target("repro.mission.explorer:ExplorationMission", "run", "mission.tick_loop"),
    Target("repro.mission.closed_loop:ClosedLoopMission", "run", "mission.tick_loop"),
    Target("repro.mission.detector_model:CalibratedDetectorModel", "detect",
           "mission.detect"),
    # repro.policies
    Target("repro.policies.base:ExplorationPolicy", "update", "policies.update",
           counter=_count_calls("policies.update.calls")),
    # repro.sim
    Target("repro.sim.fleet", "fly_fleet", "sim.fleet", counter=_count_fleet,
           request=_fleet_block),
    Target("repro.sim.results:MissionRecord", "to_dict", "sim.record_encode"),
    Target("repro.sim.results:MissionRecord", "from_dict", "sim.record_decode"),
    Target("repro.sim.campaign:Campaign", "missions", "sim.campaign_expand"),
    # repro.exec
    Target("repro.exec.jobspec:JobSpec", "content_hash", "exec.hash"),
    Target("repro.exec.jobspec:JobSpec", "run", "exec.job", request=_job_request),
    Target("repro.exec.cache:ResultCache", "put", "exec.cache_put"),
    Target("repro.exec.cache:ResultCache", "get", "exec.cache_get",
           counter=_count_cache_get),
    Target("repro.exec.executor:Executor", "run", "exec.executor",
           counter=_count_executor),
)

#: Span that wraps one whole traced pass.
ROOT_SPAN = "bench.pass"

_TIMES = (
    "nn.conv2d.forward", "nn.conv2d.backward", "nn.depthwise.forward",
    "nn.depthwise.backward", "nn.batchnorm.forward", "nn.batchnorm.backward",
    "nn.relu6.forward", "nn.relu6.backward", "nn.im2col", "nn.col2im",
    "nn.optim.step",
    "vision.ssd.loss", "vision.ssd.predict", "datasets.generate",
    "datasets.augment", "quantization.qat", "quantization.convert",
    "quantization.int8_forward", "evaluation.map",
    "geometry.cast_many", "geometry.line_of_sight", "geometry.cast_fleet",
    "world.is_free", "world.is_free_many", "world.build",
    "sensors.multiranger", "sensors.camera", "drone.step", "drone.dynamics",
    "mapping.mocap", "mission.tick_loop", "mission.detect",
    "policies.update",
    "sim.fleet", "sim.record_encode", "sim.record_decode", "sim.campaign_expand",
    "exec.hash", "exec.cache_put", "exec.cache_get", "exec.executor",
)

#: (metric, unit, better) of the counts and ratios, in report order.
_COUNTS = (
    ("nn.conv2d.calls", "count", "lower"),
    ("nn.depthwise.calls", "count", "lower"),
    ("nn.conv.macs", "count", "lower"),
    ("nn.im2col.bytes", "bytes", "lower"),
    ("geometry.cast_many.rays", "count", "lower"),
    ("geometry.cast_fleet.rays", "count", "lower"),
    ("world.is_free.calls_per_tick", "calls/tick", "lower"),
    ("sensors.camera.frames", "count", "higher"),
    ("sim.ticks", "count", "higher"),
    ("policies.update.calls", "count", "lower"),
    ("sim.fleet.block_size", "count", "higher"),
    ("exec.cache.hit_frac", "ratio", "higher"),
    ("exec.failed", "count", "lower"),
    ("exec.retried", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    return [(f"{span}_s", "s", "lower") for span in _TIMES] + list(_COUNTS)


#: Metrics that are one count over another: ``(numerator, denominator)``.
_RATIOS = {
    "world.is_free.calls_per_tick": ("world.is_free.calls", "sim.ticks"),
    "sim.fleet.block_size": ("sim.fleet.members", "sim.fleet.blocks"),
    "exec.cache.hit_frac": ("exec.cache.hits", "exec.cache.gets"),
}


def summarize(tracer: Tracer) -> Dict[str, float]:
    """Per-layer values of one traced pass (``trace.overhead`` excluded)."""
    self_s = tracer.self_time_by_name()
    counts = tracer.counts
    values: Dict[str, float] = {f"{span}_s": self_s.get(span, 0.0) for span in _TIMES}
    for name, _, _ in _COUNTS:
        if name in _RATIOS:
            num, den = _RATIOS[name]
            values[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        elif name != "trace.overhead":
            values[name] = counts.get(name, 0)
    return values


def count_signature(tracer: Tracer) -> Dict[str, float]:
    """Everything in a traced pass that must repeat exactly for fixed inputs."""
    signature: Dict[str, float] = dict(tracer.counts)
    for name, calls in tracer.calls_by_name().items():
        signature[f"spans:{name}"] = calls
    return signature
