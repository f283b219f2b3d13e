"""Training loop for the SSD detectors (paper Sec. IV-A).

The paper trains on OpenImages with RMSProp, lr 8e-4 decayed by 0.95
every 24 epochs, batch 24, photometric augmentations with p = 0.5; it
then fine-tunes (optionally with QAT) on the Himax dataset at lr 1e-4
decayed by 0.95 every 10 epochs. :class:`TrainingConfig` encodes those
hyperparameters, scaled to whatever dataset size the caller provides.

As in the paper's PyTorch pipeline, each step computes in float32, on
float32 copies of the float64 master weights that the optimizer updates.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.datasets.base import DetectionDataset, LabeledImage
from repro.datasets.augment import photometric_augment
from repro.nn.optim import ExponentialDecay, RMSProp
from repro.vision.ssd import SSDDetector


@dataclass
class TrainingConfig:
    """Hyperparameters of one training phase.

    Attributes:
        epochs: passes over the dataset.
        batch_size: minibatch size (24 in the paper; smaller for the
            laptop-scale models).
        learning_rate: initial learning rate.
        decay_rate: exponential decay factor (0.95 in the paper).
        decay_epochs: epochs between decays (24 pre-train / 10 fine-tune).
        augment_prob: per-transform augmentation probability.
        seed: shuffling/augmentation seed.
    """

    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 8e-4
    decay_rate: float = 0.95
    decay_epochs: int = 24
    augment_prob: float = 0.5
    seed: Optional[int] = 0


def paper_pretrain_config(epochs: int = 10, batch_size: int = 8) -> TrainingConfig:
    """The OpenImages training recipe (lr 8e-4, decay every 24 epochs)."""
    return TrainingConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=8e-4,
        decay_rate=0.95,
        decay_epochs=24,
    )


def paper_finetune_config(epochs: int = 5, batch_size: int = 8) -> TrainingConfig:
    """The Himax fine-tuning recipe (lr 1e-4, decay every 10 epochs)."""
    return TrainingConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=1e-4,
        decay_rate=0.95,
        decay_epochs=10,
    )


@dataclass
class TrainingLog:
    """Per-epoch mean losses."""

    epoch_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


@contextlib.contextmanager
def _float32_weights(detector: SSDDetector) -> Iterator[None]:
    """Swap each parameter's ``data`` for a float32 copy, then restore the masters."""
    params = detector.parameters()
    masters = [p.data for p in params]
    for p in params:
        p.data = p.data.astype(np.float32)
    try:
        yield
    finally:
        for p, master in zip(params, masters):
            p.data = master


class Trainer:
    """Trains an :class:`~repro.vision.ssd.SSDDetector` on a dataset.

    Steps run in float32 on float32 copies of the weights; gradients,
    optimizer state and BatchNorm buffers stay float64, like the masters.

    Args:
        detector: the model to train (modified in place).
        config: training hyperparameters.
        qat: optional weight fake-quantizer
            (:class:`repro.quantization.qat.QATWeightQuantizer`); when
            given, every step trains through quantized weights.
    """

    def __init__(
        self,
        detector: SSDDetector,
        config: Optional[TrainingConfig] = None,
        qat=None,
    ):
        self.detector = detector
        self.config = config or TrainingConfig()
        self.qat = qat
        self._rng = np.random.default_rng(self.config.seed)

    def fit(self, dataset: DetectionDataset) -> TrainingLog:
        """Run the configured number of epochs; returns the loss log."""
        cfg = self.config
        steps_per_epoch = max(1, (len(dataset) + cfg.batch_size - 1) // cfg.batch_size)
        schedule = ExponentialDecay(
            cfg.learning_rate,
            decay_rate=cfg.decay_rate,
            decay_steps=cfg.decay_epochs * steps_per_epoch,
        )
        optimizer = RMSProp(self.detector.parameters(), schedule)
        log = TrainingLog()
        self.detector.train(True)
        for _epoch in range(cfg.epochs):
            losses = []
            for images, boxes, labels in dataset.batches(cfg.batch_size, self._rng):
                if cfg.augment_prob > 0.0:
                    augmented = [
                        photometric_augment(
                            LabeledImage(images[i], boxes[i], labels[i]),
                            self._rng,
                            p=cfg.augment_prob,
                        )
                        for i in range(images.shape[0])
                    ]
                    images = np.stack([a.image for a in augmented])
                    boxes = [a.boxes for a in augmented]
                    labels = [a.labels for a in augmented]
                losses.append(self._step(optimizer, images, boxes, labels))
            log.epoch_losses.append(float(np.mean(losses)))
        self.detector.train(False)
        return log

    def _step(self, optimizer, images, boxes, labels) -> float:
        self.detector.zero_grad()
        # Cast inside QAT's context, so the layers see its int8-grid weights.
        quantized = (
            contextlib.nullcontext() if self.qat is None
            else self.qat.quantized_weights(self.detector)
        )
        with quantized, _float32_weights(self.detector):
            loss, grads = self.detector.compute_loss(
                images.astype(np.float32), boxes, labels
            )
            self.detector.backward(grads)
        optimizer.step()
        return loss
