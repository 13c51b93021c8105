"""2-D convolution via im2col lowering."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.functional import col2im, im2col
from repro.nn.module import Module, Parameter
from repro.utils.rng import as_generator
from repro.utils.validation import as_pair, check_positive

__all__ = ["Conv2d"]


class Conv2d(Module):
    """2-D cross-correlation over NCHW inputs.

    Weight shape is ``(out_channels, in_channels, kh, kw)``.  The forward
    pass lowers the input with :func:`repro.nn.functional.im2col` and
    performs one GEMM, which is the performant formulation in numpy.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: "int | tuple[int, int]",
        stride: "int | tuple[int, int]" = 1,
        padding: "int | tuple[int, int]" = 0,
        bias: bool = True,
        seed: "int | np.random.Generator | None" = None,
    ):
        super().__init__()
        check_positive("in_channels", in_channels)
        check_positive("out_channels", out_channels)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = as_pair("kernel_size", kernel_size)
        self.stride = as_pair("stride", stride)
        self.padding = as_pair("padding", padding)
        check_positive("kernel_size", min(self.kernel_size))
        check_positive("stride", min(self.stride))
        if min(self.padding) < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")

        rng = as_generator(seed)
        weight_shape = (self.out_channels, self.in_channels, *self.kernel_size)
        self.weight = Parameter(init.kaiming_uniform(weight_shape, rng))
        if bias:
            self.bias: "Parameter | None" = Parameter(init.zeros((self.out_channels,)))
        else:
            self.bias = None

        self._cols: "np.ndarray | None" = None
        self._input_shape: "tuple[int, int, int, int] | None" = None
        self._out_hw: "tuple[int, int] | None" = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects NCHW input, got shape {x.shape}")
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        n = x.shape[0]
        cols, (out_h, out_w) = im2col(x, self.kernel_size, self.stride, self.padding)
        flat_weight = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ flat_weight.T  # (N*out_h*out_w, out_channels)
        if self.bias is not None:
            out += self.bias.data
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

        if self.training:
            self._cols = cols
            self._input_shape = x.shape  # type: ignore[assignment]
            self._out_hw = (out_h, out_w)
        return np.ascontiguousarray(out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward in training mode")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        n = self._input_shape[0]
        out_h, out_w = self._out_hw
        # (N, C_out, H, W) -> (N*out_h*out_w, C_out), matching forward's GEMM.
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, -1)

        grad_weight = grad_flat.T @ self._cols
        self.weight.accumulate_grad(grad_weight.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate_grad(grad_flat.sum(axis=0))

        flat_weight = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = grad_flat @ flat_weight
        return col2im(
            grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding
        )

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, bias={self.bias is not None}"
        )
