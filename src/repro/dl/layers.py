"""Numpy implementations of the CNN layers used by the parking detector.

Layers operate on arrays shaped ``(height, width, channels)`` for images and
``(features,)`` for vectors.  Every layer reports its multiply-accumulate
count so the deployment tooling can size the workload for the complex-core
models (work units ≈ MACs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """Base class: a callable with a MAC estimate."""

    def forward(self, tensor: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def macs(self, input_shape: Tuple[int, ...]) -> int:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, tensor: np.ndarray) -> np.ndarray:
        return self.forward(tensor)


@dataclass
class Conv2D(Layer):
    """Valid 2-D convolution with per-filter bias.

    ``forward`` is one im2col product: every receptive field becomes a row
    of ``K = kh * kw * in_channels`` inputs (a strided
    ``sliding_window_view``, no Python loop), and all rows are multiplied
    by the ``(K, out_channels)`` weight matrix at once.  The rows are
    stacked as ``(out_h, out_w, 1, K)`` rather than ``(N, K)`` on purpose: a
    batched matmul runs the same one-row product per output pixel as a
    per-pixel ``np.tensordot``, so outputs (and the trained parking
    detector) are bit-identical to the direct convolution.  A single 2-D
    GEMM would block the K-sum differently and change the last bits.  The
    two output axes stay separate so that merging ``(kh, kw, in_channels)``
    into ``K`` copies exactly when the per-pixel patch reshape does: with
    ``kw == in_channels == 1`` both sum a strided view, in the same order.
    The output is always ``float64``.
    """

    weights: np.ndarray            # (kh, kw, in_channels, out_channels)
    bias: Optional[np.ndarray] = None
    stride: int = 1

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ValueError("Conv2D weights must be 4-dimensional")
        if self.bias is None:
            self.bias = np.zeros(self.weights.shape[-1])
        if np.shape(self.bias) != self.weights.shape[-1:]:
            raise ValueError(
                f"Conv2D bias must have shape {self.weights.shape[-1:]}, "
                f"got {np.shape(self.bias)}")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")

    @classmethod
    def from_random(cls, kernel: int, in_channels: int, out_channels: int,
                    seed: int = 0, scale: float = 0.1) -> "Conv2D":
        rng = np.random.default_rng(seed)
        weights = rng.normal(0.0, scale, (kernel, kernel, in_channels, out_channels))
        return cls(weights=weights)

    def forward(self, tensor: np.ndarray) -> np.ndarray:
        if tensor.ndim == 2:
            tensor = tensor[:, :, np.newaxis]
        kh, kw, in_channels, out_channels = self.weights.shape
        if tensor.shape[2] != in_channels:
            raise ValueError(
                f"expected {in_channels} input channels, got {tensor.shape[2]}")
        out_h = (tensor.shape[0] - kh) // self.stride + 1
        out_w = (tensor.shape[1] - kw) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError("input smaller than the convolution kernel")
        # (out_h, out_w, cin, kh, kw) views, reordered to match the
        # (kh, kw, cin) layout of the weights' leading axes.
        windows = sliding_window_view(tensor, (kh, kw), axis=(0, 1))
        windows = windows[::self.stride, ::self.stride]
        patches = windows.transpose(0, 1, 3, 4, 2).reshape(
            out_h, out_w, 1, kh * kw * in_channels)
        product = patches @ self.weights.reshape(-1, out_channels)
        output = product[:, :, 0, :] + self.bias
        return output.astype(np.float64, copy=False)

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        kh, kw, in_channels, out_channels = self.weights.shape
        height = (input_shape[0] - kh) // self.stride + 1
        width = (input_shape[1] - kw) // self.stride + 1
        return height * width * out_channels * kh * kw * in_channels


@dataclass
class ReLU(Layer):
    def forward(self, tensor: np.ndarray) -> np.ndarray:
        return np.maximum(tensor, 0.0)

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        return 0


@dataclass
class MaxPool2D(Layer):
    """Non-overlapping max pooling."""

    size: int = 2

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("pool size must be at least 1")

    def forward(self, tensor: np.ndarray) -> np.ndarray:
        if tensor.ndim == 2:
            tensor = tensor[:, :, np.newaxis]
        height = tensor.shape[0] // self.size
        width = tensor.shape[1] // self.size
        if height == 0 or width == 0:
            raise ValueError("input smaller than the pooling window")
        trimmed = tensor[:height * self.size, :width * self.size, :]
        reshaped = trimmed.reshape(height, self.size, width, self.size,
                                   trimmed.shape[2])
        return reshaped.max(axis=(1, 3))

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        return 0


@dataclass
class Flatten(Layer):
    def forward(self, tensor: np.ndarray) -> np.ndarray:
        return tensor.reshape(-1)

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        return 0


@dataclass
class Dense(Layer):
    """Fully connected layer ``y = W x + b``."""

    weights: np.ndarray            # (outputs, inputs)
    bias: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ValueError("Dense weights must be 2-dimensional")
        if self.bias is None:
            self.bias = np.zeros(self.weights.shape[0])

    @classmethod
    def from_random(cls, inputs: int, outputs: int, seed: int = 0,
                    scale: float = 0.1) -> "Dense":
        rng = np.random.default_rng(seed)
        return cls(weights=rng.normal(0.0, scale, (outputs, inputs)))

    def forward(self, tensor: np.ndarray) -> np.ndarray:
        flat = tensor.reshape(-1)
        if flat.shape[0] != self.weights.shape[1]:
            raise ValueError(
                f"Dense expects {self.weights.shape[1]} inputs, got {flat.shape[0]}")
        return self.weights @ flat + self.bias

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        return int(np.prod(self.weights.shape))


@dataclass
class Softmax(Layer):
    def forward(self, tensor: np.ndarray) -> np.ndarray:
        shifted = tensor - np.max(tensor)
        exponentials = np.exp(shifted)
        return exponentials / exponentials.sum()

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        return 0


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    clipped = np.clip(values, -60.0, 60.0)
    return np.where(clipped >= 0,
                    1.0 / (1.0 + np.exp(-clipped)),
                    np.exp(clipped) / (1.0 + np.exp(clipped)))
