"""The conv and BatchNorm kernels against an independent reference.

``perfbench.nnref`` holds plain reference layers written without
``im2col``: convolutions as sums of shifted slices, BatchNorm from the
textbook chain rule. A perfbench run checks only a few shapes per layer
kind; these tests check every layer shape the Table I detectors run, the
configurations they lack, and that non-contiguous arrays change no bit.
"""

import numpy as np
import pytest

from perfbench import nnref
from repro.experiments import jobs
from repro.nn import BatchNorm2d, Conv2d, DepthwiseConv2d, ReLU6


def test_every_detector_layer_shape_matches_the_reference():
    batch = jobs.make_openimages_like(8, hw=jobs.TINY_HW, seed=0)
    images = np.stack([item.image for item in batch])
    keys = nnref.capture_layer_shapes((1.0, 0.75, 0.5), images)
    assert {kind for kind, _, _ in keys} == {kind for kind, _ in nnref.CAPTURED}
    # Both Conv2d paths run: the 1x1 matmul and the im2col stem.
    assert {config[1] for kind, config, _ in keys if kind == "conv2d"} == {1, 3}
    rng = np.random.default_rng(17)
    problems = [p for key in keys for p in nnref.check_layer(key, rng)]
    assert problems == []


@pytest.mark.parametrize(
    "key",
    [
        # 1x1 convs that are not stride 1 and unpadded take the im2col path.
        ("conv2d", (6, 1, 2, 0, 0), (2, 4, 5, 7)),
        ("conv2d", (6, 1, 1, 1, 1), (2, 4, 5, 7)),
        ("conv2d", (6, 1, 1, 0, 1), (1, 4, 5, 7)),
    ]
    + [
        ("depthwise", (3, stride, padding, bias), (n, 4, 6, 7))
        for n in (1, 2)
        for stride in (1, 2)
        for padding in (0, 1)
        for bias in (0, 1)
    ],
    ids=lambda key: f"{key[0]}-{'x'.join(map(str, key[1]))}-n{key[2][0]}",
)
def test_configurations_the_detectors_lack_match_the_reference(key):
    assert nnref.check_layer(key, np.random.default_rng(23)) == []


# In a training step the conv backward receives the SSD heads' transposed
# gradients, and ReLU6 the depthwise backward's strided views.
LAYERS = {
    "pointwise": lambda rng: Conv2d(6, 5, 1, rng=rng),
    "stem": lambda rng: Conv2d(6, 5, 3, stride=2, padding=1, bias=True, rng=rng),
    "depthwise-s1": lambda rng: DepthwiseConv2d(6, 3, stride=1, padding=1, rng=rng),
    "depthwise-s2": lambda rng: DepthwiseConv2d(6, 3, stride=2, padding=1, rng=rng),
    "depthwise-p0": lambda rng: DepthwiseConv2d(6, 3, padding=0, bias=True, rng=rng),
    "relu6": lambda rng: ReLU6(),
    "batchnorm": lambda rng: BatchNorm2d(6),
}


def _run(layer, x, g):
    """Outputs, gradients and updated buffers (BatchNorm's running
    statistics) of one step; the layer's state is restored after it."""
    state = layer.state_dict()
    layer.zero_grad()
    out = layer.forward(x)
    dx = layer.backward(g)
    grads = [p.grad.copy() for p in layer.parameters()]
    buffers = [b.copy() for _, b in layer.named_buffers()]
    layer.load_state_dict(state)
    return [out, dx] + grads + buffers


@pytest.mark.parametrize("name", list(LAYERS))
def test_non_contiguous_arrays_give_the_contiguous_results(name):
    """Forward on a transposed view, and backward on a strided view like
    the one the depthwise backward returns, equal the results for
    contiguous copies bit for bit."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 6, 9, 7)).transpose(0, 1, 3, 2)
    layer = LAYERS[name](rng)
    n, c, h, w = layer.forward(x).shape
    g = rng.standard_normal((n, c, h + 2, w + 2))[:, :, 1:-1, 1:-1]
    assert not x.flags.c_contiguous and not g.flags.c_contiguous
    got = _run(layer, x, g)
    want = _run(layer, np.ascontiguousarray(x), np.ascontiguousarray(g))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
