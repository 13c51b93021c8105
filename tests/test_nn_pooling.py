"""Tests for pooling layers."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import nn


def naive_maxpool(x, k, s, p=0):
    """Loop-based max pooling; padding is ``-inf``, as in the layer."""
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
    out_h = (h + 2 * p - k) // s + 1
    out_w = (w + 2 * p - k) // s + 1
    out = np.zeros((n, c, out_h, out_w), dtype=np.float32)
    for i in range(out_h):
        for j in range(out_w):
            window = padded[:, :, i * s : i * s + k, j * s : j * s + k]
            out[:, :, i, j] = window.max(axis=(2, 3))
    return out


def _bits(values):
    """float32 values as uint32 words, so -0.0 != +0.0 and NaN payloads count."""
    return np.asarray(values, dtype=np.float32).view(np.uint32)


# Special float32 words for the eval/train property test.
SPECIAL_BITS = (
    0x00000000, 0x80000000,  # +0, -0
    0x7F800000, 0xFF800000,  # +inf, -inf
    0x7FC00000, 0xFFC00000, 0x7FC0BEEF, 0xFFC01234,  # quiet NaNs
    0x7F800001, 0xFF800002, 0x7FA00005, 0xFFBFFFFF,  # signalling NaNs
    0x00000001, 0x807FFFFF, 0x00400000,  # denormals
    0x7F7FFFFF, 0xFF7FFFFF,  # +-max finite
)
_NORMAL_BITS = st.floats(-4.0, 4.0, width=32).map(
    lambda value: int(np.float32(value).view(np.uint32))
)
_WORDS = st.one_of(
    _NORMAL_BITS,
    _NORMAL_BITS.map(lambda word: word ^ (1 << 30)),  # exponent bit 30 flipped
    st.sampled_from(SPECIAL_BITS),
)


@st.composite
def _pool_cases(draw):
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ph, pw = draw(st.integers(0, kh // 2)), draw(st.integers(0, kw // 2))
    h = draw(st.integers(max(1, kh - 2 * ph), 6))
    w = draw(st.integers(max(1, kw - 2 * pw), 6))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    words = draw(st.lists(_WORDS, min_size=n * c * h * w, max_size=n * c * h * w))
    x = np.asarray(words, dtype=np.uint32).view(np.float32).reshape(n, c, h, w)
    return x, (kh, kw), (sh, sw), (ph, pw)


def _window_case(*words):
    """One 1x1-channel image whose single 2x2 window holds ``words``."""
    x = np.asarray(words, dtype=np.uint32).view(np.float32).reshape(1, 1, 2, 2)
    return x, (2, 2), (2, 2), (0, 0)


class TestMaxPool:
    @pytest.mark.parametrize("k,s", [(2, 2), (3, 1), (2, 1), (3, 3)])
    def test_matches_naive(self, k, s):
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        for training in (True, False):
            pool = nn.MaxPool2d(k, stride=s).train(training)
            np.testing.assert_array_equal(pool(x), naive_maxpool(x, k, s))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("k,s,p", [(2, 2, 1), (3, 2, 1), (3, 1, 1), (5, 3, 2)])
    def test_padded_matches_naive(self, k, s, p, training):
        pool = nn.MaxPool2d(k, stride=s, padding=p).train(training)
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(pool(x), naive_maxpool(x, k, s, p))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_padding_never_wins(self, training):
        """Border windows of an all-negative input take their maximum from
        the input, not from the padding."""
        x = -np.arange(1, 17, dtype=np.float32).reshape(1, 1, 4, 4)
        out = nn.MaxPool2d(2, stride=2, padding=1).train(training)(x)
        np.testing.assert_array_equal(
            out[0, 0],
            [[-1.0, -2.0, -4.0], [-5.0, -6.0, -8.0], [-13.0, -14.0, -16.0]],
        )

    @pytest.mark.parametrize(
        "kernel,padding", [(2, 3), (2, 2), (3, 2), (1, 1), ((3, 2), (1, 2))]
    )
    def test_padding_over_half_kernel_rejected(self, kernel, padding):
        with pytest.raises(ValueError, match="half the kernel"):
            nn.MaxPool2d(kernel, padding=padding)

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.MaxPool2d(0)
        with pytest.raises(ValueError):
            nn.MaxPool2d(2, padding=-1)

    @settings(max_examples=200, deadline=None)
    @given(case=_pool_cases())
    @example(case=_window_case(0x80000000, 0x00000000, 0xBF800000, 0xBF800000))
    @example(case=_window_case(0x3F800000, 0x7FC0BEEF, 0x7F800001, 0x40000000))
    def test_eval_equals_argmax_bitwise(self, case):
        """The eval running maximum returns the argmax element's exact bits:
        the first of tied values (-0.0 before +0.0 stays -0.0), and the
        first NaN with its payload."""
        x, kernel, stride, padding = case
        train = nn.MaxPool2d(kernel, stride=stride, padding=padding).train()
        evaluate = nn.MaxPool2d(kernel, stride=stride, padding=padding).eval()
        np.testing.assert_array_equal(_bits(evaluate(x)), _bits(train(x)))

    def test_eval_keeps_first_tie_and_first_nan(self):
        pool = nn.MaxPool2d(2).eval()
        x = _window_case(0x80000000, 0x00000000, 0xBF800000, 0xBF800000)[0]
        assert _bits(pool(x)).item() == 0x80000000  # -0.0, not +0.0
        x = _window_case(0x3F800000, 0x7FC0BEEF, 0x7F800001, 0x40000000)[0]
        assert _bits(pool(x)).item() == 0x7FC0BEEF  # the first NaN's payload

    def test_default_stride_equals_kernel(self):
        pool = nn.MaxPool2d(2)
        assert pool.stride == (2, 2)

    def test_backward_routes_to_argmax(self):
        pool = nn.MaxPool2d(2)
        pool.train()
        x = np.asarray(
            [[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32
        )
        out = pool(x)
        assert out.item() == 4.0
        grad = pool.backward(np.asarray([[[[5.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(
            grad, [[[[0.0, 0.0], [0.0, 5.0]]]]
        )

    def test_backward_shape(self):
        pool = nn.MaxPool2d(2)
        pool.train()
        x = np.random.default_rng(1).standard_normal((2, 3, 8, 8)).astype(np.float32)
        out = pool(x)
        grad = pool.backward(np.ones_like(out))
        assert grad.shape == x.shape
        # Each 2x2 window contributes exactly one gradient unit.
        assert grad.sum() == pytest.approx(out.size)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            nn.MaxPool2d(2)(np.zeros((3, 8, 8), dtype=np.float32))

    def test_backward_before_forward(self):
        pool = nn.MaxPool2d(2)
        pool.train()
        with pytest.raises(RuntimeError):
            pool.backward(np.zeros((1, 1, 1, 1), dtype=np.float32))
