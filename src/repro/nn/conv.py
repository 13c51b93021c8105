"""2-D convolution via im2col lowering, or per-image lowering in eval."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.functional import col2im, conv2d_per_image, conv_output_size, im2col
from repro.nn.module import Module, Parameter
from repro.utils.rng import as_generator
from repro.utils.validation import as_pair, check_positive

__all__ = ["Conv2d"]

# Eval lowers one image at a time only when each image's GEMM has at
# least this many rows; per-image GEMMs under ~100 rows measured slower
# than one batched GEMM (AlexNet conv3, 78 rows: 9.4 -> 11.1 ms per 64
# images).
PER_IMAGE_MIN_ROWS = 128


class Conv2d(Module):
    """2-D cross-correlation over NCHW inputs.

    Weight shape is ``(out_channels, in_channels, kh, kw)``.  Training
    lowers the batch with :func:`repro.nn.functional.im2col` and runs one
    GEMM; backward reuses the patch matrix.

    Eval of a stride-1 layer whose per-image GEMM has at least
    :data:`PER_IMAGE_MIN_ROWS` rows (``(out_h - 1) * Wp + out_w``, ``Wp``
    the padded width) lowers one image at a time through
    :func:`repro.nn.functional.conv2d_per_image`, so no batch-sized patch
    matrix is built.  The GEMM keeps the same operands in the same roles,
    so finite outputs and zero signs equal the training path's bit for
    bit; only NaN payloads may differ.  Strided layers and smaller planes
    keep the batched ``im2col`` GEMM in eval too.
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
        flat_weight = self.weight.data.reshape(self.out_channels, -1)
        if not self.training and self._per_image_rows(x.shape) >= PER_IMAGE_MIN_ROWS:
            out = conv2d_per_image(x, flat_weight, self.kernel_size, self.padding)
            if self.bias is not None:
                out += self.bias.data[:, None, None]
            return out
        n = x.shape[0]
        cols, (out_h, out_w) = im2col(x, self.kernel_size, self.stride, self.padding)
        out = cols @ flat_weight.T  # (N*out_h*out_w, out_channels)
        if self.bias is not None:
            out += self.bias.data
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

        if self.training:
            self._cols = cols
            self._input_shape = x.shape  # type: ignore[assignment]
            self._out_hw = (out_h, out_w)
        return np.ascontiguousarray(out)

    def _per_image_rows(self, shape: "tuple[int, ...]") -> int:
        """GEMM rows per image of the per-image lowering; 0 if it never applies.

        Strided layers have no shifted runs.  A one-channel output would
        make the GEMM a GEMV, whose sum order depends on the patch
        operand's storage order.
        """
        if self.stride != (1, 1) or self.out_channels == 1:
            return 0
        (kh, kw), (ph, pw) = self.kernel_size, self.padding
        out_h = conv_output_size(shape[2], kh, 1, ph)
        out_w = conv_output_size(shape[3], kw, 1, pw)
        return (out_h - 1) * (shape[3] + 2 * pw) + out_w

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
