"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col, pad_nchw
from repro.nn.module import Module
from repro.utils.validation import as_pair

__all__ = ["MaxPool2d"]


class _Pool2d(Module):
    """Shared bookkeeping for window-based pooling layers."""

    def __init__(
        self,
        kernel_size: "int | tuple[int, int]",
        stride: "int | tuple[int, int] | None" = None,
        padding: "int | tuple[int, int]" = 0,
    ):
        super().__init__()
        self.kernel_size = as_pair("kernel_size", kernel_size)
        self.stride = as_pair("stride", stride) if stride is not None else self.kernel_size
        self.padding = as_pair("padding", padding)
        if min(self.kernel_size) <= 0 or min(self.stride) <= 0:
            raise ValueError("kernel_size and stride must be positive")
        if min(self.padding) < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")

    def _windows(
        self, x: np.ndarray, pad_value: float = 0.0
    ) -> tuple[np.ndarray, tuple[int, int]]:
        """Lower to per-channel patch rows: (N*C*out_h*out_w, kh*kw)."""
        n, c = x.shape[:2]
        padded = pad_nchw(x, self.padding, pad_value)
        # Treat channels as batch so pooling is per-channel.
        reshaped = padded.reshape(n * c, 1, *padded.shape[2:])
        return im2col(reshaped, self.kernel_size, self.stride, (0, 0))

    def extra_repr(self) -> str:
        return (
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}"
        )


class MaxPool2d(_Pool2d):
    """Max pooling; backward routes gradients to the argmax positions.

    Padding is ``-inf``, so a border window's maximum comes from the
    input, and (as in PyTorch) padding is at most half the kernel per
    axis, so no window lies wholly in the padding.

    Training lowers through :func:`im2col` and keeps the per-window
    ``argmax`` for backward.  Eval needs no indices: it takes a running
    ``np.maximum`` over the ``kh * kw`` strided slices of the padded
    input, which equals the argmax result bit for bit.  Among tied
    values (+0 and -0) the first in the window wins, and the first NaN
    in the window wins with its payload.
    """

    def __init__(
        self,
        kernel_size: "int | tuple[int, int]",
        stride: "int | tuple[int, int] | None" = None,
        padding: "int | tuple[int, int]" = 0,
    ):
        super().__init__(kernel_size, stride, padding)
        if any(p > k // 2 for p, k in zip(self.padding, self.kernel_size)):
            raise ValueError(
                f"padding must be at most half the kernel size, got "
                f"padding={self.padding} kernel_size={self.kernel_size}"
            )
        self._argmax: "np.ndarray | None" = None
        self._input_shape: "tuple[int, int, int, int] | None" = None
        self._out_hw: "tuple[int, int] | None" = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4:
            raise ValueError(f"MaxPool2d expects NCHW input, got shape {x.shape}")
        if not self.training:
            return self._eval_forward(x)
        n, c = x.shape[:2]
        cols, (out_h, out_w) = self._windows(x, -np.inf)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._argmax = argmax
        self._input_shape = x.shape  # type: ignore[assignment]
        self._out_hw = (out_h, out_w)
        return out.reshape(n, c, out_h, out_w)

    def _eval_forward(self, x: np.ndarray) -> np.ndarray:
        (kh, kw), (sh, sw), (ph, pw) = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(x.shape[2], kh, sh, ph)
        out_w = conv_output_size(x.shape[3], kw, sw, pw)
        padded = pad_nchw(x, self.padding, -np.inf)
        out = padded[:, :, : sh * out_h : sh, : sw * out_w : sw].copy()
        for i in range(kh):
            for j in range(kw):
                if i == 0 and j == 0:
                    continue
                window = padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw]
                # ``out`` second: a tie keeps the earlier element.  ``where``
                # skips lanes already NaN, so the first NaN is kept.
                np.maximum(window, out, out=out, where=out == out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._input_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward in training mode")
        n, c, h, w = self._input_shape
        out_h, out_w = self._out_hw
        grad_flat = np.asarray(grad_output, dtype=np.float32).reshape(-1)
        grad_cols = np.zeros(
            (n * c * out_h * out_w, self.kernel_size[0] * self.kernel_size[1]),
            dtype=np.float32,
        )
        grad_cols[np.arange(grad_cols.shape[0]), self._argmax] = grad_flat
        grad_input = col2im(
            grad_cols, (n * c, 1, h, w), self.kernel_size, self.stride, self.padding
        )
        return grad_input.reshape(n, c, h, w)
