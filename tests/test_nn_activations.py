"""Tests for the base activation layers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn

FLOATS = hnp.arrays(
    np.float32,
    st.integers(1, 30),
    elements=st.floats(-100, 100, width=32, allow_nan=False),
)


class TestReLU:
    def test_forward_values(self):
        relu = nn.ReLU()
        x = np.asarray([-2.0, 0.0, 3.5], dtype=np.float32)
        np.testing.assert_array_equal(relu(x), [0.0, 0.0, 3.5])

    @given(FLOATS)
    def test_non_negative_output(self, x):
        assert (nn.ReLU()(x) >= 0).all()

    @given(FLOATS)
    def test_idempotent(self, x):
        relu = nn.ReLU()
        once = relu(x)
        np.testing.assert_array_equal(relu(once), once)

    def test_backward_masks_negatives(self):
        relu = nn.ReLU()
        relu.train()
        x = np.asarray([-1.0, 2.0], dtype=np.float32)
        relu(x)
        grad = relu.backward(np.asarray([5.0, 5.0], dtype=np.float32))
        np.testing.assert_array_equal(grad, [0.0, 5.0])

    def test_backward_before_forward(self):
        relu = nn.ReLU()
        relu.train()
        with pytest.raises(RuntimeError):
            relu.backward(np.zeros(2, dtype=np.float32))


class TestLeakyReLU:
    def test_forward(self):
        layer = nn.LeakyReLU(0.1)
        x = np.asarray([-10.0, 10.0], dtype=np.float32)
        np.testing.assert_allclose(layer(x), [-1.0, 10.0], rtol=1e-6)

    def test_backward(self):
        layer = nn.LeakyReLU(0.1)
        layer.train()
        x = np.asarray([-1.0, 1.0], dtype=np.float32)
        layer(x)
        grad = layer.backward(np.ones(2, dtype=np.float32))
        np.testing.assert_allclose(grad, [0.1, 1.0], rtol=1e-6)


class TestReLU6:
    def test_caps_at_six(self):
        layer = nn.ReLU6()
        x = np.asarray([-1.0, 3.0, 100.0], dtype=np.float32)
        np.testing.assert_array_equal(layer(x), [0.0, 3.0, 6.0])

    def test_custom_cap(self):
        layer = nn.ReLU6(cap=2.0)
        np.testing.assert_array_equal(
            layer(np.asarray([5.0], dtype=np.float32)), [2.0]
        )

    def test_backward_zero_outside(self):
        layer = nn.ReLU6()
        layer.train()
        x = np.asarray([-1.0, 3.0, 100.0], dtype=np.float32)
        layer(x)
        grad = layer.backward(np.ones(3, dtype=np.float32))
        np.testing.assert_array_equal(grad, [0.0, 1.0, 0.0])

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            nn.ReLU6(cap=0.0)

    @given(FLOATS)
    def test_bounded(self, x):
        out = nn.ReLU6()(x)
        assert (out >= 0).all() and (out <= 6).all()


class TestSoftmaxLayer:
    def test_probabilities(self):
        layer = nn.Softmax()
        out = layer(np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)


class TestIdentity:
    def test_passthrough_forward_backward(self):
        layer = nn.Identity()
        x = np.asarray([1.0, -2.0], dtype=np.float32)
        np.testing.assert_array_equal(layer(x), x)
        np.testing.assert_array_equal(layer.backward(x), x)
