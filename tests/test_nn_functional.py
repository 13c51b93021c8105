"""Tests for im2col/col2im and numeric helpers against naive references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.functional import (
    col2im,
    conv_output_size,
    im2col,
    log_softmax,
    one_hot,
    pad_nchw,
    softmax,
)


def naive_im2col(x, kernel, stride, padding):
    """Loop-based reference for im2col."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    rows = []
    for b in range(n):
        for i in range(out_h):
            for j in range(out_w):
                patch = padded[b, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                rows.append(patch.reshape(-1))
    cols = np.asarray(rows, dtype=x.dtype).reshape(n * out_h * out_w, c * kh * kw)
    return cols, (out_h, out_w)


def _normal(shape, dtype=np.float32):
    return np.random.default_rng(1).standard_normal(shape).astype(dtype)


def _transposed(shape):
    """A non-contiguous view of the requested shape."""
    n, c, h, w = shape
    return _normal((n, c, w, h)).transpose(0, 1, 3, 2)


def _read_only(shape):
    """A read-only input, like the views of a shared-memory suffix cache."""
    x = _normal(shape)
    x.flags.writeable = False
    return x


def _float64(shape):
    return _normal(shape, np.float64)


class TestConvOutputSize:
    @pytest.mark.parametrize(
        "size,kernel,stride,padding,expected",
        [(32, 3, 1, 1, 32), (32, 2, 2, 0, 16), (28, 5, 1, 0, 24), (7, 3, 2, 1, 4)],
    )
    def test_known_values(self, size, kernel, stride, padding, expected):
        assert conv_output_size(size, kernel, stride, padding) == expected

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestPad:
    def test_zero_padding_is_identity(self):
        x = np.random.default_rng(0).random((1, 2, 3, 3)).astype(np.float32)
        assert pad_nchw(x, (0, 0)) is x

    def test_padding_shape_and_zeros(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        padded = pad_nchw(x, (1, 2))
        assert padded.shape == (1, 1, 4, 6)
        assert padded[0, 0, 0, 0] == 0.0
        assert padded[0, 0, 1, 2] == 1.0


class TestIm2Col:
    @pytest.mark.parametrize(
        "shape,kernel,stride,padding,make",
        [
            ((2, 3, 8, 8), (3, 3), (1, 1), (1, 1), _normal),
            ((1, 1, 5, 5), (2, 2), (2, 2), (0, 0), _normal),
            ((3, 2, 7, 9), (3, 2), (2, 1), (1, 0), _normal),
            ((1, 4, 4, 4), (4, 4), (1, 1), (0, 0), _normal),
            ((2, 3, 7, 9), (3, 3), (1, 2), (0, 0), _transposed),
            ((2, 3, 7, 9), (3, 3), (1, 1), (1, 1), _transposed),
            ((2, 3, 8, 8), (3, 3), (1, 1), (0, 0), _read_only),
            ((2, 3, 6, 7), (2, 2), (1, 1), (1, 0), _float64),
            ((2, 2, 9, 11), (2, 3), (3, 4), (0, 1), _normal),
            ((0, 3, 8, 8), (3, 3), (1, 1), (1, 1), _normal),
        ],
        # The first four keep the ids pytest generated before ``make``
        # joined the parametrization.
        ids=[f"shape{i}-kernel{i}-stride{i}-padding{i}" for i in range(4)]
        + [
            "transposed",
            "transposed-padded",
            "read-only",
            "float64-kw2",
            "stride-over-kernel",
            "empty-batch",
        ],
    )
    def test_matches_naive(self, shape, kernel, stride, padding, make):
        x = make(shape)
        got, got_hw = im2col(x, kernel, stride, padding)
        want, want_hw = naive_im2col(x, kernel, stride, padding)
        assert got_hw == want_hw
        assert got.dtype == x.dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property
        that makes conv backward correct."""
        rng = np.random.default_rng(2)
        shape, kernel, stride, padding = (2, 3, 6, 6), (3, 3), (2, 2), (1, 1)
        x = rng.standard_normal(shape).astype(np.float32)
        cols, _ = im2col(x, kernel, stride, padding)
        y = rng.standard_normal(cols.shape).astype(np.float32)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, shape, kernel, stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        size=st.integers(4, 8),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
    )
    def test_property_matches_naive(self, n, c, size, kernel, stride, padding):
        x = np.random.default_rng(0).standard_normal((n, c, size, size)).astype(np.float32)
        got, _ = im2col(x, (kernel, kernel), (stride, stride), (padding, padding))
        want, _ = naive_im2col(x, (kernel, kernel), (stride, stride), (padding, padding))
        np.testing.assert_array_equal(got, want)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).standard_normal((4, 10)).astype(np.float32)
        probs = softmax(logits, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_shift_invariance(self):
        logits = np.asarray([[1.0, 2.0, 3.0]], dtype=np.float32)
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), rtol=1e-5)

    def test_large_logits_stable(self):
        logits = np.asarray([[1e4, 0.0]], dtype=np.float32)
        probs = softmax(logits)
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        logits = np.random.default_rng(1).standard_normal((3, 5)).astype(np.float32)
        np.testing.assert_allclose(
            np.exp(log_softmax(logits, axis=1)), softmax(logits, axis=1), rtol=1e-5
        )


class TestOneHot:
    def test_basic(self):
        encoded = one_hot(np.asarray([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_hot(np.asarray([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.asarray([-1]), 3)

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), 3)
