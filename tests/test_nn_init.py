"""Tests for weight initialization schemes."""

import math

import numpy as np
import pytest

from repro.nn import init


class TestFanInFanOut:
    def test_linear_shape(self):
        assert init.fan_in_and_fan_out((8, 4)) == (4, 8)

    def test_conv_shape(self):
        # (out=16, in=3, kh=3, kw=3): fan_in = 3*9, fan_out = 16*9
        assert init.fan_in_and_fan_out((16, 3, 3, 3)) == (27, 144)

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            init.fan_in_and_fan_out((5,))


class TestKaiming:
    def test_uniform_bound(self):
        rng = np.random.default_rng(0)
        weights = init.kaiming_uniform((64, 16), rng)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 16)
        assert weights.dtype == np.float32
        assert np.abs(weights).max() <= bound + 1e-6

    def test_uniform_variance_scales_with_fan_in(self):
        rng = np.random.default_rng(0)
        narrow = init.kaiming_uniform((64, 4), rng).std()
        wide = init.kaiming_uniform((64, 400), rng).std()
        assert narrow > wide

    def test_deterministic_given_rng(self):
        a = init.kaiming_uniform((8, 8), np.random.default_rng(7))
        b = init.kaiming_uniform((8, 8), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestConstants:
    def test_zeros(self):
        arr = init.zeros((3, 2))
        assert arr.dtype == np.float32
        assert (arr == 0).all()
