"""Plain reference layers for checking ``repro.nn`` on the workload's shapes.

Written independently of the program: convolutions as sums of shifted
slices (no ``im2col``), BatchNorm from the textbook chain rule. The
detector-train check captures every (layer, input shape) the Table I
detectors run, then compares the program's forward and backward with
these on random inputs. The tolerance admits reduction-order changes
(a faster kernel may move a float64 gradient by ~1e-13) but not a wrong
gradient.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.act import ReLU6
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.norm import BatchNorm2d
from repro.vision import SSDDetector, tiny_spec

from perfbench.tracing import Target, Tracer, install, uninstall

#: Relative tolerance, scaled by the reference's largest magnitude.
RTOL = 1e-9

#: Shapes checked per layer kind (chosen by the workload seed).
SHAPES_PER_KIND = 3

LayerKey = Tuple[str, Tuple[int, ...], Tuple[int, ...]]


def _windows(x: np.ndarray, k: int, stride: int, pad: int):
    """Yield ``(i, j, view)``: the input tap of kernel offset (i, j)."""
    n, c, h, w = x.shape
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    for i in range(k):
        for j in range(k):
            yield i, j, xp[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]


def _unpad(xp: np.ndarray, pad: int) -> np.ndarray:
    return xp[:, :, pad : xp.shape[2] - pad, pad : xp.shape[3] - pad]


def conv2d(x, w, b, stride, pad):
    out = sum(np.einsum("oc,nchw->nohw", w[:, :, i, j], v) for i, j, v in _windows(x, w.shape[2], stride, pad))
    return out + b[None, :, None, None] if b is not None else out


def conv2d_backward(x, w, stride, pad, g):
    k = w.shape[2]
    dw = np.zeros_like(w)
    dxp = np.zeros((x.shape[0], x.shape[1], x.shape[2] + 2 * pad, x.shape[3] + 2 * pad))
    oh, ow = g.shape[2], g.shape[3]
    for i, j, v in _windows(x, k, stride, pad):
        dw[:, :, i, j] = np.einsum("nohw,nchw->oc", g, v)
        dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += np.einsum(
            "oc,nohw->nchw", w[:, :, i, j], g
        )
    return _unpad(dxp, pad), dw, g.sum(axis=(0, 2, 3))


def depthwise(x, w, b, stride, pad):
    out = sum(w[None, :, i, j, None, None] * v for i, j, v in _windows(x, w.shape[1], stride, pad))
    return out + b[None, :, None, None] if b is not None else out


def depthwise_backward(x, w, stride, pad, g):
    k = w.shape[1]
    dw = np.zeros_like(w)
    dxp = np.zeros((x.shape[0], x.shape[1], x.shape[2] + 2 * pad, x.shape[3] + 2 * pad))
    oh, ow = g.shape[2], g.shape[3]
    for i, j, v in _windows(x, k, stride, pad):
        dw[:, i, j] = (g * v).sum(axis=(0, 2, 3))
        dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
            w[None, :, i, j, None, None] * g
        )
    return _unpad(dxp, pad), dw, g.sum(axis=(0, 2, 3))


def batchnorm(x, gamma, beta, eps):
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    var = ((x - mu) ** 2).mean(axis=(0, 2, 3), keepdims=True)
    x_hat = (x - mu) / np.sqrt(var + eps)
    return gamma[None, :, None, None] * x_hat + beta[None, :, None, None]


def batchnorm_backward(x, gamma, eps, g):
    """Textbook chain rule through mean, variance and normalization."""
    m = x.shape[0] * x.shape[2] * x.shape[3]
    axes = (0, 2, 3)
    mu = x.mean(axis=axes, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=axes, keepdims=True)
    std = np.sqrt(var + eps)
    x_hat = xc / std
    dx_hat = g * gamma[None, :, None, None]
    dvar = (dx_hat * xc).sum(axis=axes, keepdims=True) * -0.5 * std ** -3
    dmu = (-dx_hat / std).sum(axis=axes, keepdims=True) + dvar * (-2.0 * xc).mean(
        axis=axes, keepdims=True
    )
    dx = dx_hat / std + dvar * 2.0 * xc / m + dmu / m
    return dx, (g * x_hat).sum(axis=axes), g.sum(axis=axes)


def relu6(x):
    return np.minimum(np.maximum(x, 0.0), 6.0)


def relu6_backward(x, g):
    return g * ((x > 0.0) & (x < 6.0))


# -- shape capture --------------------------------------------------------


def _config(layer: Any) -> Tuple[int, ...]:
    if isinstance(layer, Conv2d):
        return (layer.out_channels, layer.kernel_size, layer.stride, layer.padding,
                int(layer.bias is not None))
    if isinstance(layer, DepthwiseConv2d):
        return (layer.kernel_size, layer.stride, layer.padding, int(layer.bias is not None))
    return ()


#: ``(kind, class)`` of every layer whose input shapes are captured.
CAPTURED = (
    ("conv2d", "repro.nn.conv:Conv2d"),
    ("depthwise", "repro.nn.conv:DepthwiseConv2d"),
    ("batchnorm", "repro.nn.norm:BatchNorm2d"),
    ("relu6", "repro.nn.act:ReLU6"),
)


def capture_targets(seen: Dict[LayerKey, None]) -> List[Target]:
    """Wrappers of each captured layer's ``forward`` that record into ``seen``."""

    def recorder(kind: str):
        def counter(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
            seen[(kind, _config(args[0]), tuple(args[1].shape))] = None

        return counter

    return [Target(owner, "forward", "capture", counter=recorder(kind))
            for kind, owner in CAPTURED]


def capture_layer_shapes(widths: Sequence[float], images: np.ndarray) -> List[LayerKey]:
    """Distinct ``(kind, config, input shape)`` the detectors run on ``images``."""
    seen: Dict[LayerKey, None] = {}
    patches = install(capture_targets(seen), Tracer())
    try:
        for width in widths:
            SSDDetector(tiny_spec(width), rng=np.random.default_rng(0)).forward(images)
    finally:
        uninstall(patches)
    return list(seen)


# -- comparison -----------------------------------------------------------


def _close(name: str, got: np.ndarray, ref: np.ndarray) -> List[str]:
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} != reference {ref.shape}"]
    scale = max(float(np.abs(ref).max()), 1.0)
    err = float(np.abs(got - ref).max())
    if not np.isfinite(err) or err > RTOL * scale:
        return [f"{name}: max |error| {err:.3e} exceeds {RTOL:g} x {scale:.3g}"]
    return []


def _run_layer(layer: Any, x: np.ndarray, g: np.ndarray, perturb: bool) -> Tuple[np.ndarray, np.ndarray]:
    out = layer.forward(x)
    dx = layer.backward(g)
    if perturb:  # a deliberately wrong gradient, for testing the check itself
        dx = dx.copy()
        dx.flat[0] += 1e-3 * max(float(np.abs(dx).max()), 1.0)
    return out, dx


def check_layer(key: LayerKey, rng: np.random.Generator, perturb: bool = False) -> List[str]:
    """Compare one captured layer's forward and backward with the reference."""
    kind, config, shape = key
    x = rng.standard_normal(shape)
    label = f"{kind}{config} on {shape}"
    if kind == "conv2d":
        out_c, k, stride, pad, has_bias = config
        layer = Conv2d(shape[1], out_c, k, stride=stride, padding=pad, bias=bool(has_bias), rng=rng)
        if layer.bias is not None:
            layer.bias.data = rng.standard_normal(out_c)
        b = None if layer.bias is None else layer.bias.data
        ref_out = conv2d(x, layer.weight.data, b, stride, pad)
        g = rng.standard_normal(ref_out.shape)
        out, dx = _run_layer(layer, x, g, perturb)
        ref_dx, ref_dw, ref_db = conv2d_backward(x, layer.weight.data, stride, pad, g)
        problems = _close(f"{label} forward", out, ref_out)
        problems += _close(f"{label} input grad", dx, ref_dx)
        problems += _close(f"{label} weight grad", layer.weight.grad, ref_dw)
        if layer.bias is not None:
            problems += _close(f"{label} bias grad", layer.bias.grad, ref_db)
        return problems
    if kind == "depthwise":
        k, stride, pad, has_bias = config
        layer = DepthwiseConv2d(shape[1], k, stride=stride, padding=pad, bias=bool(has_bias), rng=rng)
        if layer.bias is not None:
            layer.bias.data = rng.standard_normal(shape[1])
        b = None if layer.bias is None else layer.bias.data
        ref_out = depthwise(x, layer.weight.data, b, stride, pad)
        g = rng.standard_normal(ref_out.shape)
        out, dx = _run_layer(layer, x, g, perturb)
        ref_dx, ref_dw, ref_db = depthwise_backward(x, layer.weight.data, stride, pad, g)
        problems = _close(f"{label} forward", out, ref_out)
        problems += _close(f"{label} input grad", dx, ref_dx)
        problems += _close(f"{label} weight grad", layer.weight.grad, ref_dw)
        if layer.bias is not None:
            problems += _close(f"{label} bias grad", layer.bias.grad, ref_db)
        return problems
    if kind == "batchnorm":
        layer = BatchNorm2d(shape[1])
        layer.gamma.data = 1.0 + 0.1 * rng.standard_normal(shape[1])
        layer.beta.data = 0.1 * rng.standard_normal(shape[1])
        ref_out = batchnorm(x, layer.gamma.data, layer.beta.data, layer.eps)
        g = rng.standard_normal(shape)
        out, dx = _run_layer(layer, x, g, perturb)
        ref_dx, ref_dgamma, ref_dbeta = batchnorm_backward(x, layer.gamma.data, layer.eps, g)
        problems = _close(f"{label} forward", out, ref_out)
        problems += _close(f"{label} input grad", dx, ref_dx)
        problems += _close(f"{label} gamma grad", layer.gamma.grad, ref_dgamma)
        problems += _close(f"{label} beta grad", layer.beta.grad, ref_dbeta)
        return problems
    if kind == "relu6":
        x = 4.0 * x + 3.0  # straddle both clip points
        layer = ReLU6()
        g = rng.standard_normal(shape)
        out, dx = _run_layer(layer, x, g, perturb)
        return _close(f"{label} forward", out, relu6(x)) + _close(
            f"{label} input grad", dx, relu6_backward(x, g)
        )
    return [f"unknown layer kind {kind!r}"]


def check_layers(keys: Sequence[LayerKey], seed: int) -> List[str]:
    """Check up to :data:`SHAPES_PER_KIND` captured shapes per layer kind."""
    rng = np.random.default_rng(seed)
    by_kind: Dict[str, List[LayerKey]] = {}
    for key in keys:
        by_kind.setdefault(key[0], []).append(key)
    problems: List[str] = []
    for kind, _ in CAPTURED:
        options = by_kind.get(kind, [])
        if not options:
            problems.append(f"no {kind} layer captured from the workload")
            continue
        picks = rng.choice(len(options), size=min(SHAPES_PER_KIND, len(options)), replace=False)
        for i in sorted(picks.tolist()):
            problems += check_layer(options[i], rng)
    return problems
