"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W.T + b``.

    Weight shape is ``(out_features, in_features)``; bias is optional.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: "int | np.random.Generator | None" = None,
    ):
        super().__init__()
        check_positive("in_features", in_features)
        check_positive("out_features", out_features)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = as_generator(seed)
        self.weight = Parameter(
            init.kaiming_uniform((self.out_features, self.in_features), rng)
        )
        if bias:
            self.bias: "Parameter | None" = Parameter(init.zeros((self.out_features,)))
        else:
            self.bias = None
        self._input: "np.ndarray | None" = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise ValueError(f"Linear expects (N, in_features), got shape {x.shape}")
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {x.shape[1]}"
            )
        if self.training:
            self._input = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward in training mode")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        self.weight.accumulate_grad(grad_output.T @ self._input)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=0))
        return grad_output @ self.weight.data

    def extra_repr(self) -> str:
        return (
            f"in_features={self.in_features}, out_features={self.out_features}, "
            f"bias={self.bias is not None}"
        )
