"""im2col/col2im and related low-level kernels.

In float training only a dense conv that is not 1x1, stride 1 and
unpadded runs through them: in the detectors that is the 3x3 stride-2
stem, while the pointwise convs are plain ``matmul`` calls and the
depthwise convs accumulate shifted slices of a channels-last copy of
their input (see :mod:`repro.nn.conv`).
The int8 inference kernels of the quantization package unfold every
conv with :func:`im2col`, so both accept any numeric dtype.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution collapses dimension: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into columns.

    Returns:
        ``(cols, out_h, out_w)`` where ``cols`` has shape
        ``(N, C, kh, kw, out_h, out_w)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            cols[:, :, i, j] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlaps.

    Inverse (adjoint) of :func:`im2col` used in the convolution backward
    pass.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded
