"""Batch normalization over NCHW feature maps.

Batch norm makes training the deeper VGG-16 topology tractable on a single
CPU core.  Running statistics are registered as buffers so they persist in
``state_dict`` and are *not* exposed to the weight-memory fault injector by
default (the paper injects into weights; buffers can be opted in).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.utils.validation import check_positive

__all__ = ["BatchNorm2d"]


class _BatchNorm(Module):
    """Shared implementation; subclasses define the reduction axes."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        check_positive("num_features", num_features)
        check_positive("eps", eps)
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must lie in (0, 1], got {momentum}")
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(np.ones(self.num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(self.num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(self.num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(self.num_features, dtype=np.float32))
        self._cache: "tuple | None" = None

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _axes(self, x: np.ndarray) -> tuple[int, ...]:
        raise NotImplementedError

    def _shape(self, x: np.ndarray) -> tuple[int, ...]:
        """Broadcast shape of per-channel statistics for this input rank."""
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(np.asarray(x, dtype=np.float32))
        axes = self._axes(x)
        stat_shape = self._shape(x)

        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = x.size // self.num_features
            # Update running stats with the unbiased variance estimate.
            unbiased = var * (count / max(count - 1, 1))
            new_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            new_var = (1 - self.momentum) * self.running_var + self.momentum * unbiased
            self.set_buffer("running_mean", new_mean)
            self.set_buffer("running_var", new_var)
        else:
            mean = self.running_mean
            var = self.running_var

        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalized = (x - mean.reshape(stat_shape)) * inv_std.reshape(stat_shape)
        out = normalized * self.weight.data.reshape(stat_shape) + self.bias.data.reshape(
            stat_shape
        )
        if self.training:
            self._cache = (normalized, inv_std, axes, stat_shape)
        return out.astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward in training mode")
        normalized, inv_std, axes, stat_shape = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float32)
        count = grad_output.size // self.num_features

        self.weight.accumulate_grad((grad_output * normalized).sum(axis=axes))
        self.bias.accumulate_grad(grad_output.sum(axis=axes))

        gamma = self.weight.data.reshape(stat_shape)
        grad_norm = grad_output * gamma
        # Standard batch-norm backward through the batch statistics.
        grad_input = (
            grad_norm
            - grad_norm.mean(axis=axes, keepdims=True)
            - normalized * (grad_norm * normalized).mean(axis=axes, keepdims=True)
        ) * inv_std.reshape(stat_shape)
        del count  # count is folded into the means above
        return grad_input.astype(np.float32)

    def extra_repr(self) -> str:
        return f"num_features={self.num_features}, eps={self.eps}, momentum={self.momentum}"


class BatchNorm2d(_BatchNorm):
    """Batch norm over (N, C, H, W) feature maps, per channel."""

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape[1]}")
        return x

    def _axes(self, x: np.ndarray) -> tuple[int, ...]:
        return (0, 2, 3)

    def _shape(self, x: np.ndarray) -> tuple[int, ...]:
        return (1, self.num_features, 1, 1)
