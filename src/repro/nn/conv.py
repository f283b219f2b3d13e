"""Standard and depthwise 2-D convolutions with backprop.

MobileNetV2 only needs these two flavours: dense convolutions (the stem
and every 1x1 pointwise conv) and 3x3 depthwise convolutions.

- A 1x1, stride-1, unpadded :class:`Conv2d` (every pointwise conv) is one
  batched ``matmul`` over its input viewed as ``(N, C, H*W)``, forward and
  backward. It keeps that view for the backward pass, so a caller must
  not modify the input in place between the two.
- Any other :class:`Conv2d` (the 3x3 stride-2 stem) unfolds its input with
  :func:`~repro.nn.functional.im2col`, multiplies with ``matmul`` and folds
  the input gradient back with :func:`~repro.nn.functional.col2im`.
- :class:`DepthwiseConv2d` takes and returns NCHW arrays but computes
  channels-last. It copies its input into a zero-padded ``(N, H, W, C)``
  buffer and accumulates k x k shifted slices of it, one kernel tap at a
  time, so each multiply runs over whole rows of channels instead of one
  short image row, and no column copy is made. Its backward scatters the
  taps of a channels-last copy of the gradient the same way.

Both layers reduce their weight and bias gradients over a C-ordered copy
of the incoming gradient, so the result does not depend on its layout.
Layers compute in the dtype of their input and weights (float32 in a
training step, float64 elsewhere) and modify in place only arrays they
allocated.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.seeding import DEFAULT_INIT_SEED
from repro.nn.module import Module, Parameter


def _he_init(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialization, appropriate for ReLU-family activations."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


class Conv2d(Module):
    """Dense 2-D convolution over NCHW inputs.

    Args:
        in_channels: input channel count.
        out_channels: output channel count.
        kernel_size: square kernel edge.
        stride: spatial stride.
        padding: symmetric zero padding.
        bias: add a per-channel bias (disabled when a BatchNorm follows).
        rng: initializer RNG; defaults to a fixed seed for reproducibility.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ShapeError("conv dimensions must be positive")
        rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            _he_init((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self._cache = None

    def macs(self, out_h: int, out_w: int) -> int:
        """Multiply-accumulate count for one image at this output size."""
        k = self.kernel_size
        return self.out_channels * self.in_channels * k * k * out_h * out_w

    @property
    def pointwise(self) -> bool:
        """True for a 1x1, stride-1, unpadded conv: a matmul over channels."""
        return self.kernel_size == 1 and self.stride == 1 and self.padding == 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.padding
        n = x.shape[0]
        if self.pointwise:
            out_h, out_w = x.shape[2], x.shape[3]
            flat = x.reshape(n, self.in_channels, out_h * out_w)
        else:
            cols, out_h, out_w = im2col(x, k, k, s, p)
            flat = cols.reshape(n, self.in_channels * k * k, out_h * out_w)
        out = np.matmul(self.weight.data.reshape(self.out_channels, -1), flat)
        if self.bias is not None:
            out += self.bias.data[None, :, None]
        self._cache = (x.shape, flat)
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward")
        x_shape, flat = self._cache
        # The gradient sums follow memory order: reduce a C-ordered copy,
        # as DepthwiseConv2d and BatchNorm2d do, so that the SSD heads'
        # channel-last gradients give the bits of a contiguous one.
        grad_out = np.ascontiguousarray(grad_out)
        n, _, out_h, out_w = grad_out.shape
        g = grad_out.reshape(n, self.out_channels, out_h * out_w)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += (
            np.matmul(g, flat.transpose(0, 2, 1)).sum(axis=0).reshape(self.weight.data.shape)
        )
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))
        grad_flat = np.matmul(w2d.T, g)
        if self.pointwise:
            return grad_flat.reshape(x_shape)
        k = self.kernel_size
        grad_cols = grad_flat.reshape(n, self.in_channels, k, k, out_h, out_w)
        return col2im(grad_cols, x_shape, k, k, self.stride, self.padding)


class DepthwiseConv2d(Module):
    """Depthwise 3x3 (or kxk) convolution: one filter per channel.

    Args:
        channels: input = output channel count.
        kernel_size: square kernel edge.
        stride: spatial stride.
        padding: symmetric zero padding.
        bias: add a per-channel bias.
        rng: initializer RNG.
    """

    def __init__(
        self,
        channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if channels <= 0 or kernel_size <= 0:
            raise ShapeError("conv dimensions must be positive")
        rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = kernel_size * kernel_size
        self.weight = Parameter(
            _he_init((channels, kernel_size, kernel_size), fan_in, rng)
        )
        self.bias = Parameter(np.zeros(channels)) if bias else None
        self._cache = None

    def macs(self, out_h: int, out_w: int) -> int:
        """Multiply-accumulate count for one image at this output size."""
        k = self.kernel_size
        return self.channels * k * k * out_h * out_w

    def _windows(self, out_h: int, out_w: int):
        """Yield ``(i, j, index)``: the padded NHWC slice kernel tap (i, j) reads."""
        k, s = self.kernel_size, self.stride
        for i in range(k):
            for j in range(k):
                yield i, j, np.s_[:, i : i + s * out_h : s, j : j + s * out_w : s]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"DepthwiseConv2d expects (N, {self.channels}, H, W), got {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.padding
        n, c, h, w = x.shape
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
        xp[:, p : p + h, p : p + w] = x.transpose(0, 2, 3, 1)
        # Each tap's weights repeated along an output row, so that both
        # operands of a tap's multiply run contiguously over (W_out, C).
        taps = np.ascontiguousarray(
            np.broadcast_to(self.weight.data.transpose(1, 2, 0)[:, :, None], (k, k, out_w, c))
        )
        windows = self._windows(out_h, out_w)
        i, j, window = next(windows)
        out = np.multiply(xp[window], taps[i, j])
        term = np.empty_like(out)
        for i, j, window in windows:
            np.multiply(xp[window], taps[i, j], out=term)
            out += term
        if self.bias is not None:
            out += self.bias.data
        self._cache = (x.shape, xp, taps)
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward")
        (_, _, h, w), xp, taps = self._cache
        # A C-ordered channels-last copy: the sums below then run in one
        # memory order, whatever the caller's layout.
        grad = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1))
        out_h, out_w = grad.shape[1], grad.shape[2]
        p = self.padding
        dtype = np.result_type(grad, taps)
        grad_xp = np.zeros(xp.shape, dtype=dtype)
        term = np.empty(grad.shape, dtype=dtype)
        for i, j, window in self._windows(out_h, out_w):
            # Per channel in two stages, over the N * H_out rows and then
            # along W_out: one sum over all three loses float32 accuracy.
            self.weight.grad[:, i, j] += np.einsum("nhwc,nhwc->wc", grad, xp[window]).sum(axis=0)
            np.multiply(grad, taps[i, j], out=term)
            grad_xp[window] += term
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 1)).sum(axis=0)
        return np.ascontiguousarray(grad_xp[:, p : p + h, p : p + w].transpose(0, 3, 1, 2))
