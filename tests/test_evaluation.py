"""Tests for the mAP metric and detection-rate aggregation."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.evaluation import aggregate_detection_rate, average_precision, evaluate_map
from repro.mapping.coverage import CoverageSeries
from repro.mission import FlightResult
from repro.vision.ssd import Detection


def det(box, label, score):
    return Detection(box=tuple(box), label=label, score=score)


class TestAveragePrecision:
    def test_perfect_curve(self):
        r = np.array([0.5, 1.0])
        p = np.array([1.0, 1.0])
        assert average_precision(r, p) == pytest.approx(1.0, abs=0.01)

    def test_empty(self):
        assert average_precision(np.array([]), np.array([])) == 0.0

    def test_monotone_envelope(self):
        r = np.array([0.2, 0.4, 0.6])
        p = np.array([1.0, 0.2, 0.8])
        # Envelope lifts the 0.2 dip to 0.8.
        ap = average_precision(r, p)
        assert ap > average_precision(np.array([0.2, 0.6]), np.array([1.0, 0.2]))

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            average_precision(np.zeros(2), np.zeros(3))


class TestEvaluateMap:
    def test_perfect_detection(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.4, 0.6]])]
        gt_labels = [np.array([0])]
        preds = [[det([0.1, 0.1, 0.4, 0.6], 0, 0.99)]]
        result = evaluate_map(preds, gt_boxes, gt_labels, num_classes=2)
        assert result.per_class[0] == pytest.approx(1.0, abs=0.01)
        assert result.map_50 >= result.map_score

    def test_wrong_class_scores_zero(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.4, 0.6]])]
        gt_labels = [np.array([0])]
        preds = [[det([0.1, 0.1, 0.4, 0.6], 1, 0.99)]]
        result = evaluate_map(preds, gt_boxes, gt_labels)
        assert result.per_class[0] == 0.0

    def test_localization_quality_graded(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.5, 0.5]])]
        gt_labels = [np.array([0])]
        tight = [[det([0.1, 0.1, 0.5, 0.5], 0, 0.9)]]
        loose = [[det([0.15, 0.15, 0.55, 0.55], 0, 0.9)]]
        r_tight = evaluate_map(tight, gt_boxes, gt_labels)
        r_loose = evaluate_map(loose, gt_boxes, gt_labels)
        assert r_tight.map_score > r_loose.map_score

    def test_false_positives_hurt(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.5, 0.5]])]
        gt_labels = [np.array([0])]
        clean = [[det([0.1, 0.1, 0.5, 0.5], 0, 0.9)]]
        noisy = [
            [
                det([0.6, 0.6, 0.9, 0.9], 0, 0.95),  # FP ranked first
                det([0.1, 0.1, 0.5, 0.5], 0, 0.9),
            ]
        ]
        assert (
            evaluate_map(noisy, gt_boxes, gt_labels).map_score
            < evaluate_map(clean, gt_boxes, gt_labels).map_score
        )

    def test_duplicate_detections_counted_once(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.5, 0.5]])]
        gt_labels = [np.array([0])]
        dup = [
            [
                det([0.1, 0.1, 0.5, 0.5], 0, 0.9),
                det([0.1, 0.1, 0.5, 0.5], 0, 0.8),
            ]
        ]
        result = evaluate_map(dup, gt_boxes, gt_labels, iou_thresholds=[0.5])
        assert result.map_score < 1.0  # the duplicate is a false positive

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate_map([[]], [np.zeros((0, 4))], [])


class TestDetectionRate:
    def test_aggregation(self):
        results = [
            FlightResult(0.0, CoverageSeries(), 0, 1.0, 0.0, detection_rate=rate)
            for rate in (1.0, 0.5)
        ]
        mean, std = aggregate_detection_rate(results)
        assert mean == pytest.approx(0.75)
        assert std == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_detection_rate([])
