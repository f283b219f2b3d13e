"""COCO-style mean average precision.

The paper reports mAP "as defined for the COCO dataset": AP averaged over
IoU thresholds 0.50:0.05:0.95, averaged over classes. This module
implements that metric with 101-point precision interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.vision.boxes import iou_matrix
from repro.vision.ssd import Detection

#: The COCO IoU threshold grid.
COCO_IOU_THRESHOLDS = tuple(np.arange(0.50, 0.96, 0.05).round(2))


@dataclass(frozen=True)
class MAPResult:
    """mAP evaluation output.

    Attributes:
        map_score: mAP@[.50:.95] averaged over classes.
        map_50: mAP at IoU 0.50 only.
        per_class: class id -> AP@[.50:.95].
    """

    map_score: float
    map_50: float
    per_class: Dict[int, float]


def average_precision(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """COCO 101-point interpolated AP from a PR curve.

    Args:
        recalls: increasing recall values.
        precisions: precision at each recall point.
    """
    if recalls.shape != precisions.shape:
        raise ShapeError("recalls and precisions disagree")
    if recalls.size == 0:
        return 0.0
    # Precision envelope (monotonically non-increasing from the right).
    mprec = np.concatenate([[0.0], precisions, [0.0]])
    mrec = np.concatenate([[0.0], recalls, [1.0]])
    mprec = np.maximum.accumulate(mprec[::-1])[::-1]
    sample_points = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(mrec, sample_points, side="left")
    idx = np.clip(idx, 0, mprec.size - 1)
    return float(mprec[idx].mean())


def _ap_single_class(
    gt_index: np.ndarray, best_iou: np.ndarray, n_gt: int, iou_threshold: float
) -> float:
    """AP of one class at one IoU threshold.

    Greedy COCO matching: in score order, a detection is a true positive
    when its best-overlapping ground truth clears the threshold and no
    earlier detection matched it; it never falls back to its second-best
    box. So the true positives are the first detection of each ground-truth
    index among those that clear the threshold.

    Args:
        gt_index: per detection, sorted by -score, the class-wide index of
            its best-overlapping ground-truth box (-1 when its image has
            none of this class).
        best_iou: the IoU with that box (-inf when there is none).
        n_gt: ground-truth boxes of this class over the dataset.
        iou_threshold: match threshold.
    """
    if n_gt == 0:
        return 0.0
    tp = np.zeros(best_iou.size)
    hits = np.flatnonzero(best_iou >= iou_threshold)
    _, first = np.unique(gt_index[hits], return_index=True)
    tp[hits[first]] = 1.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recalls = cum_tp / n_gt
    precisions = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)
    return average_precision(recalls, precisions)


def evaluate_map(
    predictions: Sequence[Sequence[Detection]],
    gt_boxes: Sequence[np.ndarray],
    gt_labels: Sequence[np.ndarray],
    num_classes: int = 2,
    iou_thresholds: Sequence[float] = COCO_IOU_THRESHOLDS,
) -> MAPResult:
    """Evaluate detections against ground truth over a whole dataset.

    Each (image, class) pair computes one IoU matrix; every threshold then
    reuses each detection's best ground-truth box and IoU.

    Args:
        predictions: per-image detection lists (one entry per image).
        gt_boxes: per-image ``(G_i, 4)`` normalized corner boxes.
        gt_labels: per-image ``(G_i,)`` zero-based class ids.
        num_classes: number of foreground classes.
        iou_thresholds: thresholds to average over.
    """
    if not len(predictions) == len(gt_boxes) == len(gt_labels):
        raise ShapeError("predictions and ground truth counts disagree")
    image_boxes = [np.asarray(b, dtype=np.float64).reshape(-1, 4) for b in gt_boxes]
    image_labels = [np.asarray(lab, dtype=int).reshape(-1) for lab in gt_labels]
    per_class: Dict[int, float] = {}
    per_class_50: Dict[int, float] = {}
    for cls in range(num_classes):
        # Detections in (image, detection) order, so that the stable score
        # sort breaks ties the same way on every run.
        scores: List[float] = []
        gt_index: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        best_iou: List[np.ndarray] = [np.empty(0)]
        n_gt = 0
        for dets, boxes, labels in zip(predictions, image_boxes, image_labels):
            gts = boxes[labels == cls]
            mine = [d for d in dets if d.label == cls]
            if mine:
                scores.extend(d.score for d in mine)
                if gts.shape[0]:
                    ious = iou_matrix(np.array([d.box for d in mine], dtype=np.float64), gts)
                    gt_index.append(n_gt + ious.argmax(axis=1))
                    best_iou.append(ious.max(axis=1))
                else:
                    gt_index.append(np.full(len(mine), -1))
                    best_iou.append(np.full(len(mine), -np.inf))
            n_gt += gts.shape[0]
        order = np.argsort(-np.array(scores, dtype=np.float64), kind="stable")
        index = np.concatenate(gt_index)[order]
        iou = np.concatenate(best_iou)[order]
        aps = [_ap_single_class(index, iou, n_gt, thr) for thr in iou_thresholds]
        per_class[cls] = float(np.mean(aps)) if aps else 0.0
        per_class_50[cls] = _ap_single_class(index, iou, n_gt, 0.5)
    map_score = float(np.mean(list(per_class.values()))) if per_class else 0.0
    map_50 = float(np.mean(list(per_class_50.values()))) if per_class_50 else 0.0
    return MAPResult(map_score=map_score, map_50=map_50, per_class=per_class)
