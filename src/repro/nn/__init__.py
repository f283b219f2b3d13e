"""A from-scratch numpy neural-network stack with backpropagation.

This replaces the TensorFlow Object Detection API used by the paper.
It provides exactly the pieces an SSD-MobileNetV2 needs: standard and
depthwise convolutions, batch normalization, ReLU6, losses, and the
RMSProp optimizer with exponential learning-rate decay that the paper
trains with.

Layout convention: activations are NCHW arrays, float32 in a training
step and float64 elsewhere.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.norm import BatchNorm2d
from repro.nn.act import ReLU, ReLU6
from repro.nn.pool import GlobalAvgPool2d
from repro.nn.linear import Linear
from repro.nn.loss import smooth_l1_loss, softmax, softmax_cross_entropy
from repro.nn.optim import ExponentialDecay, RMSProp, SGD
from repro.nn.serialization import load_state, save_state

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Conv2d",
    "DepthwiseConv2d",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "GlobalAvgPool2d",
    "Linear",
    "smooth_l1_loss",
    "softmax",
    "softmax_cross_entropy",
    "ExponentialDecay",
    "RMSProp",
    "SGD",
    "load_state",
    "save_state",
]
