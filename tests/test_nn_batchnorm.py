"""Tests for batch normalization."""

import numpy as np
import pytest

from repro import nn
from tests.conftest import numerical_gradient


class TestBatchNorm2d:
    def test_per_channel_normalization(self):
        bn = nn.BatchNorm2d(3)
        bn.train()
        x = np.random.default_rng(0).standard_normal((8, 3, 6, 6)).astype(np.float32)
        x[:, 1] += 10.0
        out = bn(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)

    def test_shape_preserved(self):
        bn = nn.BatchNorm2d(4)
        x = np.zeros((2, 4, 5, 5), dtype=np.float32)
        assert bn(x).shape == x.shape

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(3)(np.zeros((2, 3), dtype=np.float32))

    def test_state_dict_includes_running_stats(self):
        bn = nn.BatchNorm2d(2)
        state = bn.state_dict()
        assert set(state) == {"weight", "bias", "running_mean", "running_var"}

    def test_training_normalizes_batch(self):
        bn = nn.BatchNorm2d(3)
        bn.train()
        x = np.random.default_rng(0).standard_normal((16, 3, 2, 2)).astype(np.float32) * 5 + 2
        out = bn(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_affine_parameters_apply(self):
        bn = nn.BatchNorm2d(2)
        bn.train()
        bn.weight.data[:] = 3.0
        bn.bias.data[:] = 1.0
        x = np.random.default_rng(1).standard_normal((8, 2, 2, 2)).astype(np.float32)
        out = bn(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 1.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 3.0, atol=5e-2)

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2)
        bn.train()
        rng = np.random.default_rng(2)
        for _ in range(50):
            bn(rng.standard_normal((16, 2, 2, 2)).astype(np.float32) * 2 + 5)
        bn.eval()
        x = rng.standard_normal((4, 2, 2, 2)).astype(np.float32) * 2 + 5
        out = bn(x)
        # After many updates the running stats approximate the data stats.
        assert abs(out.mean()) < 0.5

    def test_eval_deterministic(self):
        bn = nn.BatchNorm2d(2)
        bn.eval()
        x = np.random.default_rng(0).standard_normal((4, 2, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(bn(x), bn(x))

    def test_running_stats_are_buffers(self):
        bn = nn.BatchNorm2d(2)
        names = {name for name, _ in bn.named_buffers()}
        assert names == {"running_mean", "running_var"}

    def test_wrong_features_rejected(self):
        bn = nn.BatchNorm2d(3)
        with pytest.raises(ValueError):
            bn(np.zeros((4, 2, 2, 2), dtype=np.float32))

    def test_backward_numerical(self):
        bn = nn.BatchNorm2d(2)
        bn.train()
        x = np.random.default_rng(3).standard_normal((4, 2, 2, 1)).astype(np.float32)

        def loss(x_in):
            probe = nn.BatchNorm2d(2)
            probe.train()
            return float((probe(x_in) ** 2).sum() / 2.0)

        out = bn(x)
        grad = bn.backward(out)
        numeric = numerical_gradient(loss, x, eps=1e-2)
        np.testing.assert_allclose(grad, numeric, rtol=0.1, atol=0.05)


class TestBatchNormValidation:
    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2, momentum=0.0)
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2, momentum=1.5)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2, eps=0.0)
