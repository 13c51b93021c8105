"""Low-level array operations shared by the NN layers.

The layers use the classic im2col/col2im lowering: convolution becomes one
large matrix multiply, which is the only way to get acceptable throughput
out of pure numpy on a CPU.  Eval-mode stride-1 convolutions over large
planes lower one image at a time instead (:func:`conv2d_per_image`), so no
batch-sized patch matrix is ever built.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "pad_nchw",
    "im2col",
    "col2im",
    "conv2d_per_image",
    "softmax",
    "log_softmax",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size: input={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def pad_nchw(
    x: np.ndarray, padding: tuple[int, int], value: float = 0.0
) -> np.ndarray:
    """Pad the two spatial axes of an NCHW tensor with ``value`` (zeros)."""
    pad_h, pad_w = padding
    if pad_h == 0 and pad_w == 0:
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)), constant_values=value
    )


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower an NCHW tensor into patch-matrix form.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(N * out_h * out_w, C * kh * kw)``: one row per output pixel, one
    column per weight of the receptive field.  It serves pooling, conv
    training (backward reuses ``cols``) and the eval convolutions that
    :func:`conv2d_per_image` leaves out: strided layers and small planes.

    Each kernel row (``kw`` values, contiguous in the padded input) is
    copied as one opaque ``kw * itemsize``-byte element instead of ``kw``
    single floats, which is what makes the copy cheap.  The bytes and
    layout of ``cols`` are exactly those of the element-wise gather.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = conv_output_size(h, kh, sh, padding[0])
    out_w = conv_output_size(w, kw, sw, padding[1])
    padded = np.ascontiguousarray(pad_nchw(x, padding))

    # Strided view of kernel rows, (N, out_h, out_w, C, kh), no copy.
    ns, cs, hs, ws = padded.strides
    row = np.dtype((np.void, kw * padded.itemsize))
    windows = np.ndarray(
        (n, out_h, out_w, c, kh),
        dtype=row,
        buffer=padded,
        strides=(ns, hs * sh, ws * sw, cs, hs),
    )
    cols = np.empty(windows.shape, dtype=row)
    cols[...] = windows
    cols = cols.view(padded.dtype).reshape(n * out_h * out_w, c * kh * kw)
    return cols, (out_h, out_w)


def conv2d_per_image(
    x: np.ndarray,
    flat_weight: np.ndarray,
    kernel: tuple[int, int],
    padding: tuple[int, int],
) -> np.ndarray:
    """Stride-1 convolution of an NCHW batch, lowered one image at a time.

    ``flat_weight`` is ``(C_out, C * kh * kw)``; the result is
    ``(N, C_out, out_h, out_w)`` without bias.  For each image, the
    ``C * kh * kw`` shifted runs of its padded planes, each one
    contiguous stretch of ``L = (out_h - 1) * Wp + out_w`` floats, are
    copied into one reused ``(K, L)`` buffer, and one GEMM
    ``buf.T @ flat_weight.T`` yields an ``(L, C_out)`` block.  Row
    ``i * Wp + j`` of the block is output pixel ``(i, j)``; the
    ``kw - 1`` rows per output row that wrap into the next padded row are
    computed and dropped.

    The GEMM keeps :func:`im2col`'s operands in their roles (patch rows
    times the transposed weight); only the rows per call and the storage
    order of the patch operand change.  Each image's result is
    independent of the rest of its batch.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    ph, pw = padding
    out_h = conv_output_size(h, kh, 1, ph)
    out_w = conv_output_size(w, kw, 1, pw)
    hp, wp = h + 2 * ph, w + 2 * pw
    rows = (out_h - 1) * wp + out_w
    c_out = flat_weight.shape[0]
    item = x.itemsize

    x = np.ascontiguousarray(x)
    plane = np.zeros((c, hp, wp), dtype=x.dtype) if ph or pw else None
    buf = np.empty((c, kh, kw, rows), dtype=x.dtype)
    patches = buf.reshape(c * kh * kw, rows).T
    weight_t = flat_weight.T
    block = np.empty((rows, c_out), dtype=x.dtype)
    # The valid pixels of ``block``, (out_h, out_w, C_out), no copy.
    pixels = np.ndarray(
        (out_h, out_w, c_out),
        dtype=x.dtype,
        buffer=block,
        strides=(wp * c_out * item, c_out * item, item),
    )
    out = np.empty((n, c_out, out_h, out_w), dtype=x.dtype)
    for index in range(n):
        source = x[index]
        if plane is not None:
            plane[:, ph : ph + h, pw : pw + w] = source
            source = plane
        buf[...] = np.ndarray(
            buf.shape,
            dtype=x.dtype,
            buffer=source,
            strides=(hp * wp * item, wp * item, item, item),
        )
        np.matmul(patches, weight_t, out=block)
        out[index] = pixels.transpose(2, 0, 1)
    return out


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> np.ndarray:
    """Scatter-add the inverse of :func:`im2col` (used by conv backward)."""
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    pad_h, pad_w = padding
    out_h = conv_output_size(h, kh, sh, pad_h)
    out_w = conv_output_size(w, kw, sw, pad_w)

    padded = np.zeros((n, c, h + 2 * pad_h, w + 2 * pad_w), dtype=cols.dtype)
    patches = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    # Accumulate each kernel offset in a vectorised slice-add.
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += patches[:, :, :, :, i, j]
    if pad_h == 0 and pad_w == 0:
        return padded
    return padded[:, :, pad_h : pad_h + h, pad_w : pad_w + w]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to one-hot float32 ``(N, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
