"""Table I: mAP of the SSD CNNs across domains, fine-tuning and precision.

Reproduces the four-row structure of the paper's Table I for each width
multiplier:

1. train on the web domain, test on the web domain (float32);
2. same weights tested on the onboard (Himax) domain -- the domain gap;
3. after fine-tuning (with QAT) on the onboard domain (float32);
4. the int8 conversion of the fine-tuned model.

Each width multiplier is one self-contained training job
(:func:`repro.experiments.jobs.train_width`) submitted to the shared
:class:`~repro.exec.Executor`: pass ``workers=`` to train the widths in
parallel, and a ``cache=`` to make reruns (and every other consumer of
the same jobs) load finished widths instead of retraining them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.exec import ProgressCallback
from repro.experiments import jobs
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.reporting import ascii_table
from repro.quantization import quantize_detector
from repro.vision import SSDDetector

#: The (testing dataset, fine-tuned, format) rows of the paper's table,
#: in print order, keyed by the job payload's ``maps`` entries.
ROW_KEYS = (
    ("OpenImages", False, "float32", "web_float"),
    ("Himax", False, "float32", "himax_float"),
    ("Himax", True, "float32", "himax_finetuned_float"),
    ("Himax", True, "int8", "himax_finetuned_int8"),
)


@dataclass
class Table1Row:
    """One (testing dataset, fine-tuning, format) row for all widths."""

    testing_dataset: str
    finetuned: bool
    format: str
    map_by_width: Dict[float, float]


@dataclass
class Table1Result:
    """All rows plus the trained models for reuse by other experiments."""

    rows: List[Table1Row]
    detectors: Dict[float, SSDDetector]
    int8_detectors: Dict[float, SSDDetector]
    scale_name: str


def run(
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    progress: Optional[ProgressCallback] = None,
    **execution: Any,
) -> Table1Result:
    """Train, fine-tune, quantize and evaluate all width multipliers.

    Args:
        scale: experiment scale (``None`` = :func:`default_scale`).
        seed: root seed of the dataset and weight-init streams.
        progress, **execution: go unchanged to the one
            :class:`~repro.exec.Executor` that trains the widths, one
            job each; no setting changes a result.
    """
    scale = scale or default_scale()
    payloads = jobs.run_jobs(jobs.table1_jobs(scale, seed), progress, **execution)

    maps: Dict[str, Dict[float, float]] = {key: {} for *_, key in ROW_KEYS}
    detectors: Dict[float, SSDDetector] = {}
    int8_detectors: Dict[float, SSDDetector] = {}
    calib = jobs.calibration_batch(
        jobs.himax_finetune_set(scale.finetune_images, seed)
    )
    for width, payload in zip(scale.widths, payloads):
        for *_, key in ROW_KEYS:
            maps[key][width] = payload["maps"][key]
        # Rebuild the fine-tuned float model from the job's weights; the
        # int8 conversion is deterministic from (weights, calibration
        # batch), so re-deriving it here is exact -- cached, pooled and
        # serial runs hand back identical models.
        det = jobs.rebuild_detector(width, payload["state"], seed=seed)
        detectors[width] = det
        int8_detectors[width] = quantize_detector(det, calib)

    rows = [
        Table1Row(ds, ft, fmt, maps[key]) for ds, ft, fmt, key in ROW_KEYS
    ]
    return Table1Result(
        rows=rows, detectors=detectors, int8_detectors=int8_detectors,
        scale_name=scale.name,
    )


def format_table(result: Table1Result) -> str:
    """Render the paper's Table I layout."""
    widths = sorted(
        {w for row in result.rows for w in row.map_by_width}, reverse=True
    )
    headers = ["Testing dataset", "Fine-tuning", "Format"] + [
        f"SSD {w:g}x" for w in widths
    ]
    rows = []
    for row in result.rows:
        rows.append(
            [row.testing_dataset, "yes" if row.finetuned else "no", row.format]
            + [f"{row.map_by_width.get(w, float('nan')):.0%}" for w in widths]
        )
    return ascii_table(
        headers, rows, title=f"Table I (scale={result.scale_name}): mAP of the SSD CNNs"
    )
