"""Training-loop tests: the detector actually learns on synthetic data."""

import numpy as np
import pytest

from repro.datasets import make_openimages_like
from repro.evaluation import evaluate_map
from repro.nn import BatchNorm2d, Conv2d, DepthwiseConv2d, ReLU6
from repro.quantization import QATWeightQuantizer, fake_quantize, symmetric_scale
from repro.vision import SSDDetector, tiny_spec
from repro.vision.training import (
    Trainer,
    TrainingConfig,
    paper_finetune_config,
    paper_pretrain_config,
)


@pytest.fixture(scope="module")
def small_dataset():
    return make_openimages_like(32, seed=0)


class TestConfigs:
    def test_paper_pretrain(self):
        cfg = paper_pretrain_config()
        assert cfg.learning_rate == 8e-4
        assert cfg.decay_rate == 0.95
        assert cfg.decay_epochs == 24

    def test_paper_finetune(self):
        cfg = paper_finetune_config()
        assert cfg.learning_rate == 1e-4
        assert cfg.decay_epochs == 10


class TestTrainer:
    def test_loss_decreases(self, small_dataset):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        cfg = TrainingConfig(epochs=4, batch_size=8, augment_prob=0.0, seed=0)
        log = Trainer(det, cfg).fit(small_dataset)
        assert len(log.epoch_losses) == 4
        assert log.epoch_losses[-1] < log.epoch_losses[0] * 0.7

    def test_training_improves_map(self, small_dataset):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))

        def measure():
            preds = []
            for start in range(0, len(small_dataset), 16):
                imgs = np.stack(
                    [
                        small_dataset[i].image
                        for i in range(start, min(start + 16, len(small_dataset)))
                    ]
                )
                preds.extend(det.predict(imgs, score_threshold=0.2))
            return evaluate_map(
                preds,
                [d.boxes for d in small_dataset],
                [d.labels for d in small_dataset],
            ).map_score

        before = measure()
        # Enough steps to clearly lift training-set mAP off the floor;
        # augmentation off so the model can overfit the small set quickly.
        cfg = TrainingConfig(epochs=14, batch_size=4, augment_prob=0.0, seed=1)
        Trainer(det, cfg).fit(small_dataset)
        after = measure()
        assert after > before + 0.05  # training-set mAP clearly improves

    def test_qat_training_runs(self, small_dataset):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        cfg = TrainingConfig(epochs=1, batch_size=8, augment_prob=0.0)
        log = Trainer(det, cfg, qat=QATWeightQuantizer()).fit(small_dataset)
        assert np.isfinite(log.final_loss)

    def test_model_in_eval_mode_after_fit(self, small_dataset):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        Trainer(det, TrainingConfig(epochs=1, batch_size=16)).fit(small_dataset)
        assert not det.training


def _modules(module):
    yield module
    for child in module.children():
        yield from _modules(child)


class TestFloat32Steps:
    """Steps compute in float32; the weights the optimizer updates, the
    gradients and the BatchNorm statistics stay float64."""

    def test_layers_compute_in_float32_on_float64_masters(self, monkeypatch):
        seen = []  # (layer, pass, input dtype, output dtype)
        first_weights = {}  # conv id -> the weight its first forward read

        def wrap(cls, name):
            original = getattr(cls, name)

            def wrapped(self, x):
                if name == "forward" and hasattr(self, "weight"):
                    first_weights.setdefault(id(self), self.weight.data.copy())
                out = original(self, x)
                seen.append((cls.__name__, name, x.dtype, out.dtype))
                return out

            monkeypatch.setattr(cls, name, wrapped)

        for cls in (Conv2d, DepthwiseConv2d, BatchNorm2d, ReLU6):
            wrap(cls, "forward")
            wrap(cls, "backward")
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        data = make_openimages_like(8, seed=0)
        cfg = TrainingConfig(epochs=1, batch_size=4, augment_prob=0.0, seed=0)
        Trainer(det, cfg).fit(data)
        convs = [m for m in _modules(det) if isinstance(m, (Conv2d, DepthwiseConv2d))]
        masters = {id(m): m.weight.data.copy() for m in convs}
        first_weights.clear()
        Trainer(det, cfg, qat=QATWeightQuantizer(bits=8)).fit(data)

        assert {(layer, pass_) for layer, pass_, _, _ in seen} == {
            (cls.__name__, pass_)
            for cls in (Conv2d, DepthwiseConv2d, BatchNorm2d, ReLU6)
            for pass_ in ("forward", "backward")
        }
        assert [call for call in seen if call[2:] != (np.float32, np.float32)] == []
        for p in det.parameters():
            assert p.data.dtype == np.float64 and p.grad.dtype == np.float64
        for _, buf in det.named_buffers():
            assert buf.dtype == np.float64
        # The first QAT step's weights are the int8-grid copies of the
        # masters, cast to float32 after quantization.
        for conv in convs:
            master = masters[id(conv)]
            scale = symmetric_scale(float(np.abs(master).max()), 8)
            np.testing.assert_array_equal(
                first_weights[id(conv)],
                fake_quantize(master, scale, 8).astype(np.float32),
            )
            assert first_weights[id(conv)].dtype == np.float32

    @pytest.mark.parametrize("qat", [None, QATWeightQuantizer(bits=8)], ids=["plain", "qat"])
    def test_a_failing_step_restores_the_masters(self, monkeypatch, qat):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        masters = [p.data for p in det.parameters()]

        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(det, "compute_loss", fail)
        cfg = TrainingConfig(epochs=1, batch_size=8, augment_prob=0.0)
        with pytest.raises(RuntimeError, match="boom"):
            Trainer(det, cfg, qat=qat).fit(make_openimages_like(8, seed=0))
        assert all(p.data is m for p, m in zip(det.parameters(), masters))
