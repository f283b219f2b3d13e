"""Numerical gradient checks for every layer and loss."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    ReLU6,
    Sequential,
    smooth_l1_loss,
    softmax_cross_entropy,
)
from repro.vision.mobilenetv2 import InvertedResidual

RNG = np.random.default_rng(42)


def numerical_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def assert_grads_match(layer, x, tol=1e-6):
    out = layer.forward(x.copy())
    r = RNG.normal(size=out.shape)

    def loss():
        return float((layer.forward(x) * r).sum())

    gx_num = numerical_grad(loss, x)
    layer.zero_grad()
    layer.forward(x)
    gx = layer.backward(r)
    np.testing.assert_allclose(gx, gx_num, atol=tol)
    for _name, p in layer.named_parameters():
        layer.zero_grad()
        layer.forward(x)
        layer.backward(r)
        analytic = p.grad.copy()
        numeric = numerical_grad(loss, p.data)
        np.testing.assert_allclose(analytic, numeric, atol=tol)


class TestLayerGradients:
    def test_conv2d(self):
        x = RNG.normal(size=(2, 3, 6, 7))
        assert_grads_match(Conv2d(3, 4, 3, stride=2, padding=1, rng=RNG), x)

    # Stride 1 without padding is the matmul path; the others run im2col.
    @pytest.mark.parametrize(
        "n, stride, padding",
        [
            pytest.param(2, 1, 0, id="n2-s1-p0"),
            pytest.param(1, 1, 0, id="n1-s1-p0"),
            pytest.param(2, 2, 0, id="n2-s2-p0"),
            pytest.param(2, 1, 1, id="n2-s1-p1"),
        ],
    )
    def test_conv2d_1x1(self, n, stride, padding):
        x = RNG.normal(size=(n, 4, 3, 3))
        assert_grads_match(Conv2d(4, 6, 1, stride=stride, padding=padding, rng=RNG), x)

    @pytest.mark.parametrize(
        "n, stride, padding, bias",
        [
            pytest.param(n, s, p, b, id=f"n{n}-s{s}-p{p}-{'bias' if b else 'nobias'}")
            for n, s, p, b in [(2, s, p, b) for s in (1, 2) for p in (0, 1) for b in (False, True)]
            + [(1, 2, 1, False)]
        ],
    )
    def test_depthwise(self, n, stride, padding, bias):
        x = RNG.normal(size=(n, 3, 6, 7))
        layer = DepthwiseConv2d(3, 3, stride=stride, padding=padding, bias=bias, rng=RNG)
        assert_grads_match(layer, x)

    @pytest.mark.parametrize("n", [pytest.param(3, id="n3"), pytest.param(1, id="n1")])
    def test_batchnorm_train(self, n):
        x = RNG.normal(size=(n, 4, 3, 3))
        bn = BatchNorm2d(4)
        bn.train(True)
        assert_grads_match(bn, x, tol=1e-5)

    def test_batchnorm_eval(self):
        x = RNG.normal(size=(3, 4, 3, 3))
        bn = BatchNorm2d(4)
        bn.forward(RNG.normal(size=(3, 4, 3, 3)))  # seed running stats
        bn.eval()
        assert_grads_match(bn, x)

    def test_relu_family(self):
        x = RNG.normal(size=(2, 3, 4, 4)) * 4.0
        assert_grads_match(ReLU(), x)
        assert_grads_match(ReLU6(), x)

    def test_global_avg_pool(self):
        x = RNG.normal(size=(2, 3, 4, 5))
        assert_grads_match(GlobalAvgPool2d(), x)

    def test_linear(self):
        x = RNG.normal(size=(3, 5))
        assert_grads_match(Linear(5, 4, rng=RNG), x)

    @staticmethod
    def _nudge_off_kinks(block):
        # Zero-padded/ReLU-zeroed patches produce *exactly* zero
        # pre-activations, where central differences straddle the ReLU6
        # kink and disagree with the one-sided analytic gradient. Shifting
        # the BN betas moves those points off the kink; it changes nothing
        # about the correctness property being checked.
        for name, p in block.named_parameters():
            if name.endswith("beta"):
                p.data += 0.05

    def test_inverted_residual_with_skip(self):
        x = RNG.normal(size=(2, 4, 6, 6))
        block = InvertedResidual(4, 4, stride=1, expand_ratio=2, rng=RNG)
        block.eval()  # avoid BN running-stat noise in the numeric loss
        self._nudge_off_kinks(block)
        assert_grads_match(block, x, tol=1e-5)

    def test_inverted_residual_stride2(self):
        x = RNG.normal(size=(2, 4, 6, 6))
        block = InvertedResidual(4, 8, stride=2, expand_ratio=2, rng=RNG)
        block.eval()
        self._nudge_off_kinks(block)
        assert_grads_match(block, x, tol=1e-5)


class TestLossGradients:
    def test_cross_entropy(self):
        logits = RNG.normal(size=(4, 7, 3))
        labels = RNG.integers(0, 3, size=(4, 7))
        weights = RNG.uniform(size=(4, 7))
        _, g = softmax_cross_entropy(logits, labels, weights=weights)
        gn = numerical_grad(
            lambda: softmax_cross_entropy(logits, labels, weights=weights)[0], logits
        )
        np.testing.assert_allclose(g, gn, atol=1e-7)

    def test_smooth_l1(self):
        pred = RNG.normal(size=(4, 6)) * 2.0
        target = RNG.normal(size=(4, 6))
        weights = (RNG.uniform(size=(4, 6)) > 0.5).astype(float)
        _, g = smooth_l1_loss(pred, target, weights=weights)
        gn = numerical_grad(
            lambda: smooth_l1_loss(pred, target, weights=weights)[0], pred
        )
        np.testing.assert_allclose(g, gn, atol=1e-7)

    def test_loss_values(self):
        # Perfect predictions: CE -> ~0 against a one-hot optimum.
        logits = np.full((1, 2, 3), -20.0)
        logits[0, 0, 1] = 20.0
        logits[0, 1, 2] = 20.0
        labels = np.array([[1, 2]])
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(0.0, abs=1e-6)
        loss, _ = smooth_l1_loss(np.ones((2, 2)), np.ones((2, 2)))
        assert loss == 0.0

    def test_shape_errors(self):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros((3,), dtype=int))
        with pytest.raises(ShapeError):
            smooth_l1_loss(np.zeros((2, 2)), np.zeros((2, 3)))
