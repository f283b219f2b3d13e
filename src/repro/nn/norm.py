"""Batch normalization with running statistics and a folding helper.

Folding BN into the preceding convolution is required before int8
quantization (the GAP8 kernels run conv+BN as one fused integer op).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Per-channel batch normalization over NCHW activations.

    Args:
        channels: number of channels.
        eps: numerical stabilizer.
        momentum: running-statistics update rate.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if channels <= 0:
            raise ShapeError("channels must be positive")
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"BatchNorm2d expects (N, {self.channels}, H, W), got {x.shape}"
            )
        # The channel sums follow memory order; summing a C-ordered copy
        # (the input itself when it is one) makes every bit of the
        # result independent of the caller's layout.
        x = np.ascontiguousarray(x)
        if self.training:
            m = x.shape[0] * x.shape[2] * x.shape[3]
            mean = np.einsum("nchw->c", x) / m
            x_hat = x - mean[None, :, None, None]
            var = np.einsum("nchw,nchw->c", x_hat, x_hat) / m
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            x_hat = x - self.running_mean[None, :, None, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[None, :, None, None]
        out = x_hat * self.gamma.data[None, :, None, None]
        out += self.beta.data[None, :, None, None]
        self._cache = (x_hat, inv_std)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward")
        x_hat, inv_std = self._cache
        grad_out = np.ascontiguousarray(grad_out)
        n, _, h, w = grad_out.shape
        m = n * h * w
        dgamma = np.einsum("nchw,nchw->c", grad_out, x_hat)
        dbeta = np.einsum("nchw->c", grad_out)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        scale = (self.gamma.data * inv_std)[None, :, None, None]
        if not self.training:
            return grad_out * scale
        dx = x_hat * (dgamma / m)[None, :, None, None]
        np.subtract(grad_out, dx, out=dx)
        dx -= (dbeta / m)[None, :, None, None]
        dx *= scale
        return dx

    def fold_scale_shift(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(scale, shift)`` such that ``y = scale * x + shift`` in eval mode.

        Used to fold the BN into the preceding convolution's weights and
        bias before quantization.
        """
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma.data * inv_std
        shift = self.beta.data - self.running_mean * scale
        return scale, shift
