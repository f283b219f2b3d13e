"""Execution-layer jobs for the training-bound experiments.

Table I trains one detector pipeline per SSD width; Table II/IV plan
one GAP8 deployment per width; Fig. 3 flies one exploration mission per
policy. Each of those units is a deterministic, self-contained function
of plain data -- so each becomes a :class:`~repro.exec.JobSpec` that
the shared :class:`~repro.exec.Executor` can fan out over worker
processes and memoize in the persistent result cache. The experiment
modules (:mod:`~repro.experiments.table1` etc.) submit these jobs and
rebuild their rich result objects from the plain payloads.

Because jobs are keyed by content, results flow *between* experiments
for free: Table IV's deployment-plan job for a width is byte-for-byte
the job Table II already ran, so ``table4`` reuses ``table2``'s cached
plan (and vice versa) instead of re-tracing the network.

Payload encoding: numpy arrays travel as ``{"dtype", "shape", "data"}``
dicts with base64-encoded bytes (:func:`encode_array`), which is exact
-- no float formatting round-off -- and JSON-safe for the cache.
"""

from __future__ import annotations

import base64
from typing import Dict, List, Optional

import numpy as np

from repro.datasets import (
    make_himax_like,
    make_openimages_like,
    rebalance_with_translation,
)
from repro.datasets.base import DetectionDataset
from repro import schemas
from repro.errors import ExecError
from repro.evaluation import evaluate_map
from repro.exec import JobSpec
from repro.experiments.config import ExperimentScale
from repro.geometry.vec import Vec2
from repro.hw.cost import CostReport, LayerCost
from repro.hw.deploy import DeploymentPlan, GAPFlowDeployer
from repro.hw.gap8 import PerformanceEstimate
from repro.hw.memory import LayerTiling, MemoryReport
from repro.mapping.occupancy import OccupancyGrid
from repro.mission.explorer import ExplorationMission
from repro.policies import PolicyConfig, make_policy
from repro.quantization import QATWeightQuantizer, quantize_detector
from repro.vision import SSDDetector, full_scale_spec, tiny_spec
from repro.vision.training import (
    Trainer,
    paper_finetune_config,
    paper_pretrain_config,
)
from repro.world import paper_room

#: Code-version token of every experiment job; bump when a job callable
#: below changes semantics so stale cached results are invalidated.
EXPERIMENT_JOB_VERSION = schemas.EXPERIMENT_JOB_VERSION

#: Input resolution of the tiny experiment detectors, (H, W).
TINY_HW = (48, 64)

#: Calibration batch size for int8 conversion (first N fine-tune images).
CALIBRATION_IMAGES = 16


# -- payload codecs --------------------------------------------------------


def encode_array(arr: np.ndarray) -> dict:
    """Exact, JSON-safe encoding of a numpy array."""
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(data: dict) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    try:
        raw = base64.b64decode(data["data"].encode("ascii"))
        arr = np.frombuffer(raw, dtype=np.dtype(data["dtype"]))
        return arr.reshape(tuple(data["shape"])).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ExecError(f"malformed array payload: {exc}") from exc


def encode_state(state: Dict[str, np.ndarray]) -> dict:
    """Encode a module state dict (:meth:`repro.nn.module.Module.state_dict`)."""
    return {name: encode_array(arr) for name, arr in state.items()}


def decode_state(data: dict) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_state`."""
    return {name: decode_array(arr) for name, arr in data.items()}


def plan_to_dict(plan: DeploymentPlan) -> dict:
    """Plain-data form of a :class:`~repro.hw.deploy.DeploymentPlan`."""
    return {
        "cost": {
            "name": plan.cost.name,
            "input_hw": list(plan.cost.input_hw),
            "layers": [
                {
                    "name": l.name,
                    "kind": l.kind,
                    "macs": l.macs,
                    "params": l.params,
                    "in_shape": list(l.in_shape),
                    "out_shape": list(l.out_shape),
                }
                for l in plan.cost.layers
            ],
        },
        "memory": {
            "name": plan.memory.name,
            "weight_bytes": plan.memory.weight_bytes,
            "weights_location": plan.memory.weights_location,
            "peak_activation_bytes": plan.memory.peak_activation_bytes,
            "tilings": [
                {
                    "name": t.name,
                    "working_set_bytes": t.working_set_bytes,
                    "n_tiles": t.n_tiles,
                }
                for t in plan.memory.tilings
            ],
        },
        "performance": {
            "name": plan.performance.name,
            "macs": plan.performance.macs,
            "cycles": plan.performance.cycles,
            "efficiency_mac_per_cycle": plan.performance.efficiency_mac_per_cycle,
            "latency_s": plan.performance.latency_s,
            "fps": plan.performance.fps,
        },
    }


def plan_from_dict(data: dict) -> DeploymentPlan:
    """Inverse of :func:`plan_to_dict`."""
    cost = data["cost"]
    memory = data["memory"]
    return DeploymentPlan(
        cost=CostReport(
            name=cost["name"],
            input_hw=tuple(cost["input_hw"]),
            layers=[
                LayerCost(
                    name=l["name"],
                    kind=l["kind"],
                    macs=l["macs"],
                    params=l["params"],
                    in_shape=tuple(l["in_shape"]),
                    out_shape=tuple(l["out_shape"]),
                )
                for l in cost["layers"]
            ],
        ),
        memory=MemoryReport(
            name=memory["name"],
            weight_bytes=memory["weight_bytes"],
            weights_location=memory["weights_location"],
            peak_activation_bytes=memory["peak_activation_bytes"],
            tilings=[
                LayerTiling(
                    name=t["name"],
                    working_set_bytes=t["working_set_bytes"],
                    n_tiles=t["n_tiles"],
                )
                for t in memory["tilings"]
            ],
        ),
        performance=PerformanceEstimate(**data["performance"]),
    )


# -- shared helpers --------------------------------------------------------


def evaluate_detector(
    model: SSDDetector, dataset: DetectionDataset, batch: int = 16
) -> float:
    """mAP of ``model`` over ``dataset`` (the Table I evaluation loop)."""
    preds = []
    for start in range(0, len(dataset), batch):
        images = np.stack(
            [dataset[i].image for i in range(start, min(start + batch, len(dataset)))]
        )
        preds.extend(model.predict(images, score_threshold=0.3))
    result = evaluate_map(
        preds, [d.boxes for d in dataset], [d.labels for d in dataset]
    )
    return result.map_score


def himax_finetune_set(finetune_images: int, seed: int) -> DetectionDataset:
    """The onboard-domain fine-tuning set Table I trains and calibrates on."""
    return make_himax_like(finetune_images, hw=TINY_HW, seed=seed + 3)


def calibration_batch(dataset: DetectionDataset) -> np.ndarray:
    """The int8 calibration images (first :data:`CALIBRATION_IMAGES`)."""
    n = min(CALIBRATION_IMAGES, len(dataset))
    return np.stack([dataset[i].image for i in range(n)])


def rebuild_detector(width: float, state: dict, seed: int = 0) -> SSDDetector:
    """A tiny-spec detector carrying the (decoded) trained weights."""
    det = SSDDetector(tiny_spec(width), rng=np.random.default_rng(seed + 10))
    det.load_state_dict(decode_state(state))
    return det


# -- job callables ---------------------------------------------------------


def train_width(
    width: float,
    train_images: int,
    finetune_images: int,
    test_images: int,
    pretrain_epochs: int,
    finetune_epochs: int,
    batch_size: int,
    seed: int,
) -> dict:
    """Table I pipeline for one SSD width: train, fine-tune, quantize, eval.

    Takes exactly the :class:`~repro.experiments.config.ExperimentScale`
    fields it consumes -- not the whole scale -- so the job hash (and
    with it the cache key) ignores knobs that cannot change this
    width's training: ``n_runs``, ``flight_time_s``, the scale's
    ``name``, and which *other* widths the sweep trains.

    Args:
        width: SSD width multiplier.
        train_images: web-domain training images.
        finetune_images: onboard-domain fine-tuning images.
        test_images: test images per domain.
        pretrain_epochs: web training epochs.
        finetune_epochs: onboard fine-tuning epochs.
        batch_size: training batch size.
        seed: the experiment's root seed (dataset + init streams are
            derived with the same offsets the original in-process loop
            used, so the decomposition is float-identical).

    Returns:
        ``{"maps": {...}, "state": <encoded state dict>}`` where
        ``maps`` holds the four Table I cells of this width and
        ``state`` the fine-tuned float detector's weights.
    """
    web_train = rebalance_with_translation(
        make_openimages_like(train_images, hw=TINY_HW, seed=seed), seed=seed + 1
    )
    web_test = make_openimages_like(test_images, hw=TINY_HW, seed=seed + 2)
    himax_train = himax_finetune_set(finetune_images, seed)
    himax_test = make_himax_like(test_images, hw=TINY_HW, seed=seed + 4)

    det = SSDDetector(tiny_spec(width), rng=np.random.default_rng(seed + 10))
    Trainer(
        det,
        paper_pretrain_config(pretrain_epochs, batch_size),
    ).fit(web_train)
    maps = {
        "web_float": evaluate_detector(det, web_test),
        "himax_float": evaluate_detector(det, himax_test),
    }

    Trainer(
        det,
        paper_finetune_config(finetune_epochs, batch_size),
        qat=QATWeightQuantizer(bits=8),
    ).fit(himax_train)
    maps["himax_finetuned_float"] = evaluate_detector(det, himax_test)

    qdet = quantize_detector(det, calibration_batch(himax_train))
    maps["himax_finetuned_int8"] = evaluate_detector(qdet, himax_test)
    return {"maps": maps, "state": encode_state(det.state_dict())}


def deployment_plan(width: float) -> dict:
    """Table II/IV job: plan one width's GAP8 deployment.

    Deterministic from ``width`` alone (the plan traces the untrained
    full-resolution architecture), which is exactly why Table II and
    Table IV share cached results.
    """
    plan = GAPFlowDeployer().plan(SSDDetector(full_scale_spec(width)))
    return {"plan": plan_to_dict(plan)}


def explore_policy(
    policy: str,
    speed: float,
    flight_time_s: float,
    seed: Optional[np.random.SeedSequence] = None,
) -> dict:
    """Fig. 3 job: fly one policy in the paper room, return its heatmap.

    The occupancy grid ships as exact arrays plus the start pose its
    reachable-cell normalization was seeded from; rebuild it with
    :func:`rebuild_grid`.
    """
    room = paper_room()
    start = Vec2(1.0, 1.0)  # the platform default, made explicit so the
    # payload can rebuild the grid's reachable-cell bookkeeping exactly
    mission = ExplorationMission(
        room,
        make_policy(policy, PolicyConfig(cruise_speed=speed)),
        flight_time_s=flight_time_s,
        start=start,
    )
    result = mission.run(seed=seed)
    grid = result.grid
    return {
        "coverage": result.coverage,
        "occupancy_time": encode_array(grid.occupancy_time),
        "visited": encode_array(grid.visited_mask),
        "cell_size": grid.cell_size,
        "start": [start.x, start.y],
    }


def rebuild_grid(payload: dict) -> OccupancyGrid:
    """The live grid of an :func:`explore_policy` payload (paper room).

    Rebuilt with the payload's start pose, so the grid's
    ``coverage()``/``reachable_cells`` agree with the mission's.
    """
    return OccupancyGrid.from_occupancy(
        paper_room(),
        decode_array(payload["occupancy_time"]),
        decode_array(payload["visited"]),
        cell_size=payload["cell_size"],
        start=Vec2(*payload["start"]),
    )


# -- job builders ----------------------------------------------------------


def table1_job(width: float, scale: ExperimentScale, seed: int) -> JobSpec:
    """The per-width Table I training job.

    The payload carries only the scale fields the training consumes, so
    e.g. changing ``n_runs`` (a flight knob) or dropping a width from
    the sweep keeps every other width's cached training valid.
    """
    return JobSpec(
        fn="repro.experiments.jobs:train_width",
        kwargs={
            "width": width,
            "train_images": scale.train_images,
            "finetune_images": scale.finetune_images,
            "test_images": scale.test_images,
            "pretrain_epochs": scale.pretrain_epochs,
            "finetune_epochs": scale.finetune_epochs,
            "batch_size": scale.batch_size,
            "seed": seed,
        },
        version=EXPERIMENT_JOB_VERSION,
        label=f"table1 width {width:g}x",
    )


def plan_job(width: float) -> JobSpec:
    """The per-width deployment-plan job (shared by Tables II and IV)."""
    return JobSpec(
        fn="repro.experiments.jobs:deployment_plan",
        kwargs={"width": width},
        version=EXPERIMENT_JOB_VERSION,
        label=f"deploy width {width:g}x",
    )


def fig3_job(policy: str, speed: float, flight_time_s: float, seed: int) -> JobSpec:
    """The per-policy Fig. 3 exploration job.

    Every policy flies the *same* stream (the paper seeds each flight
    identically), so the seed is job provenance with an empty spawn
    key: ``SeedSequence(seed)`` exactly as the in-process loop drew it.
    """
    return JobSpec(
        fn="repro.experiments.jobs:explore_policy",
        kwargs={"policy": policy, "speed": speed, "flight_time_s": flight_time_s},
        seed_entropy=seed,
        spawn_key=(),
        version=EXPERIMENT_JOB_VERSION,
        label=f"fig3 {policy}",
    )


def table1_jobs(scale: ExperimentScale, seed: int) -> List[JobSpec]:
    """One training job per configured width."""
    return [table1_job(w, scale, seed) for w in scale.widths]


def plan_jobs(scale: ExperimentScale) -> List[JobSpec]:
    """One deployment-plan job per configured width."""
    return [plan_job(w) for w in scale.widths]
