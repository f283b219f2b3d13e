"""``evaluate_map`` against a per-detection, per-threshold reference matcher.

The reference below matches each detection on its own, recomputing its
IoUs at every threshold, with a Python loop for the precision envelope.
``evaluate_map`` computes one IoU matrix per (image, class) and reuses it
across thresholds; since ``iou_matrix`` is elementwise, every result must
be bit-identical.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.evaluation import average_precision, evaluate_map
from repro.evaluation.map import COCO_IOU_THRESHOLDS
from repro.vision.boxes import iou_matrix
from repro.vision.ssd import Detection


def reference_average_precision(recalls: np.ndarray, precisions: np.ndarray) -> float:
    if recalls.size == 0:
        return 0.0
    mprec = np.concatenate([[0.0], precisions, [0.0]])
    mrec = np.concatenate([[0.0], recalls, [1.0]])
    for i in range(mprec.size - 2, -1, -1):
        mprec[i] = max(mprec[i], mprec[i + 1])
    sample_points = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(mrec, sample_points, side="left")
    idx = np.clip(idx, 0, mprec.size - 1)
    return float(mprec[idx].mean())


def reference_ap_single_class(
    detections: List[Tuple[int, float, np.ndarray]],
    gts: Dict[int, np.ndarray],
    iou_threshold: float,
) -> float:
    n_gt = sum(boxes.shape[0] for boxes in gts.values())
    if n_gt == 0:
        return 0.0
    matched = {img: np.zeros(boxes.shape[0], dtype=bool) for img, boxes in gts.items()}
    tp = np.zeros(len(detections))
    fp = np.zeros(len(detections))
    for i, (img, _score, box) in enumerate(detections):
        gt_boxes = gts.get(img)
        if gt_boxes is None or gt_boxes.shape[0] == 0:
            fp[i] = 1.0
            continue
        ious = iou_matrix(box[None, :], gt_boxes)[0]
        best = int(np.argmax(ious))
        if ious[best] >= iou_threshold and not matched[img][best]:
            matched[img][best] = True
            tp[i] = 1.0
        else:
            fp[i] = 1.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recalls = cum_tp / n_gt
    precisions = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)
    return reference_average_precision(recalls, precisions)


def reference_evaluate_map(predictions, gt_boxes, gt_labels, num_classes, iou_thresholds):
    per_class: Dict[int, float] = {}
    per_class_50: Dict[int, float] = {}
    for cls in range(num_classes):
        detections = []
        for img_id, dets in enumerate(predictions):
            for d in dets:
                if d.label == cls:
                    detections.append((img_id, d.score, np.asarray(d.box, dtype=np.float64)))
        detections.sort(key=lambda t: -t[1])
        gts = {}
        for img_id, (boxes, labels) in enumerate(zip(gt_boxes, gt_labels)):
            boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
            labels = np.asarray(labels, dtype=int).reshape(-1)
            gts[img_id] = boxes[labels == cls]
        aps = [reference_ap_single_class(detections, gts, thr) for thr in iou_thresholds]
        per_class[cls] = float(np.mean(aps)) if aps else 0.0
        per_class_50[cls] = reference_ap_single_class(detections, gts, 0.5)
    map_score = float(np.mean(list(per_class.values()))) if per_class else 0.0
    map_50 = float(np.mean(list(per_class_50.values()))) if per_class_50 else 0.0
    return map_score, map_50, per_class


def _box(rng: np.random.Generator) -> np.ndarray:
    x0, y0 = rng.uniform(0.0, 0.7, size=2)
    w, h = rng.uniform(0.05, 0.3, size=2)
    if rng.random() < 0.1:  # zero area: against another, union 0 and IoU 0
        w = 0.0
    return np.array([x0, y0, x0 + w, y0 + h])


def random_case(seed: int):
    """Predictions and ground truth with the cases the matcher must get right:
    tied scores across images, several detections of one box, images with
    no ground truth of a class, images with no detections, zero-area boxes."""
    rng = np.random.default_rng(seed)
    num_classes = int(rng.integers(1, 4))
    predictions: List[List[Detection]] = []
    gt_boxes: List[np.ndarray] = []
    gt_labels: List[np.ndarray] = []
    for _ in range(int(rng.integers(1, 8))):
        boxes = np.array([_box(rng) for _ in range(int(rng.integers(0, 4)))]).reshape(-1, 4)
        labels = rng.integers(0, num_classes, size=len(boxes))
        dets = []
        for _ in range(int(rng.integers(0, 7))):
            if len(boxes) and rng.random() < 0.6:
                k = int(rng.integers(len(boxes)))
                box = boxes[k] + rng.normal(0.0, 0.03, size=4) * (rng.random() < 0.8)
                label = int(labels[k]) if rng.random() < 0.8 else int(rng.integers(num_classes))
            else:
                box, label = _box(rng), int(rng.integers(num_classes))
            score = float(rng.choice([0.3, 0.5, 0.7, 0.9, rng.uniform(0.3, 1.0)]))
            dets.append(Detection(box=tuple(float(v) for v in box), label=label, score=score))
        predictions.append(dets)
        gt_boxes.append(boxes)
        gt_labels.append(labels)
    return predictions, gt_boxes, gt_labels, num_classes


@pytest.mark.parametrize(
    "thresholds",
    # The custom grid's ends sit on IoUs that occur exactly: 0 for disjoint
    # boxes, 1 for an unjittered copy of a ground-truth box.
    [pytest.param(COCO_IOU_THRESHOLDS, id="coco"), pytest.param((0.0, 0.3, 0.65, 1.0), id="custom")],
)
def test_evaluate_map_equals_the_reference_matcher(thresholds: Sequence[float]):
    for seed in range(60):
        predictions, gt_boxes, gt_labels, num_classes = random_case(seed)
        got = evaluate_map(predictions, gt_boxes, gt_labels, num_classes, thresholds)
        want = reference_evaluate_map(predictions, gt_boxes, gt_labels, num_classes, thresholds)
        assert (got.map_score, got.map_50, got.per_class) == want, f"seed {seed}"


def test_average_precision_equals_the_reference_envelope():
    rng = np.random.default_rng(0)
    for size in (0, 1, 2, 5, 40):
        recalls = np.sort(rng.uniform(size=size))
        precisions = rng.uniform(size=size)
        assert average_precision(recalls, precisions) == reference_average_precision(
            recalls, precisions
        )
