"""Elementwise activation layers.

The unbounded :class:`ReLU` is the activation the paper's fault analysis
targets; :class:`ReLU6` is the fixed-threshold clipping baseline.  The
paper's own *clipped* activation (map values above a tunable per-layer
threshold to zero) lives in :mod:`repro.core.clipped` because it is part of
the contribution, not the substrate.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax
from repro.nn.module import Module

__all__ = [
    "Activation",
    "ReLU",
    "LeakyReLU",
    "ReLU6",
    "Softmax",
    "Identity",
]


class Activation(Module):
    """Marker base class: layers that transform activations elementwise.

    The activation-swap machinery (:mod:`repro.core.swap`) replaces
    instances of this class with clipped variants, so any activation added
    to a model should derive from it.
    """


class ReLU(Activation):
    """``max(0, x)`` — the unbounded activation the paper hardens."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: "np.ndarray | None" = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if self.training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward in training mode")
        return np.asarray(grad_output, dtype=np.float32) * self._mask


class LeakyReLU(Activation):
    """``x if x > 0 else slope * x``."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = float(negative_slope)
        self._mask: "np.ndarray | None" = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if self.training:
            self._mask = x > 0
        return np.where(x > 0, x, self.negative_slope * x).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward in training mode")
        grad = np.asarray(grad_output, dtype=np.float32)
        return np.where(self._mask, grad, self.negative_slope * grad).astype(np.float32)

    def extra_repr(self) -> str:
        return f"negative_slope={self.negative_slope}"


class ReLU6(Activation):
    """``min(max(0, x), 6)`` — a fixed clamp, used as a mitigation baseline."""

    def __init__(self, cap: float = 6.0):
        super().__init__()
        if cap <= 0:
            raise ValueError(f"cap must be positive, got {cap}")
        self.cap = float(cap)
        self._mask: "np.ndarray | None" = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if self.training:
            self._mask = (x > 0) & (x < self.cap)
        return np.clip(x, 0.0, self.cap)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward in training mode")
        return np.asarray(grad_output, dtype=np.float32) * self._mask

    def extra_repr(self) -> str:
        return f"cap={self.cap}"


class Softmax(Activation):
    """Softmax over the last axis (inference-time probabilities).

    Training uses :class:`repro.nn.losses.CrossEntropyLoss` directly on
    logits instead, so this layer's backward is intentionally unimplemented.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        return softmax(np.asarray(x, dtype=np.float32), axis=-1)


class Identity(Activation):
    """Pass-through; useful as a placeholder when removing an activation."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float32)
