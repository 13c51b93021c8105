"""Tests for Adam and the optimizer base."""

import numpy as np
import pytest

from repro import nn
from repro.optim import Adam


def _quadratic_param(start=5.0):
    """Single scalar parameter with loss f(w) = w^2 / 2, grad = w."""
    return nn.Parameter(np.asarray([start], dtype=np.float32))


def _step(optimizer, param, times=1):
    for _ in range(times):
        param.zero_grad()
        param.accumulate_grad(param.data.copy())  # grad of w^2/2
        optimizer.step()


class TestOptimizerBase:
    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_non_parameter_rejected(self):
        with pytest.raises(TypeError):
            Adam([np.zeros(3)], lr=0.1)  # type: ignore[list-item]

    def test_non_positive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([_quadratic_param()], lr=0.0)

    def test_zero_grad_clears(self):
        param = _quadratic_param()
        optimizer = Adam([param], lr=0.1)
        param.accumulate_grad(np.ones(1, dtype=np.float32))
        optimizer.zero_grad()
        assert param.grad is None

    def test_step_skips_missing_grad(self):
        param = _quadratic_param()
        before = param.data.copy()
        Adam([param], lr=0.1).step()
        np.testing.assert_array_equal(param.data, before)


class TestAdam:
    def test_converges_on_quadratic(self):
        param = _quadratic_param()
        optimizer = Adam([param], lr=0.2)
        _step(optimizer, param, times=200)
        assert abs(param.data[0]) < 1e-2

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, the first Adam step is ~lr regardless of
        # gradient scale.
        for scale in (1e-3, 1.0, 1e3):
            param = nn.Parameter(np.asarray([10.0], dtype=np.float32))
            optimizer = Adam([param], lr=0.1)
            param.accumulate_grad(np.asarray([scale], dtype=np.float32))
            optimizer.step()
            assert 10.0 - param.data[0] == pytest.approx(0.1, rel=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([_quadratic_param()], betas=(1.0, 0.999))

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            Adam([_quadratic_param()], eps=0.0)

    def test_decoupled_weight_decay(self):
        param = nn.Parameter(np.asarray([1.0], dtype=np.float32))
        optimizer = Adam([param], lr=0.1, weight_decay=0.5, decoupled=True)
        param.accumulate_grad(np.zeros(1, dtype=np.float32))
        optimizer.step()
        assert param.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_coupled_weight_decay_moves_through_moments(self):
        param = nn.Parameter(np.asarray([1.0], dtype=np.float32))
        optimizer = Adam([param], lr=0.1, weight_decay=0.5, decoupled=False)
        param.accumulate_grad(np.zeros(1, dtype=np.float32))
        optimizer.step()
        # Coupled decay behaves like a gradient: first step is ~lr.
        assert param.data[0] == pytest.approx(1.0 - 0.1, rel=1e-3)

    def test_requires_grad_false_frozen(self):
        param = nn.Parameter(np.asarray([3.0], dtype=np.float32), requires_grad=False)
        optimizer = Adam([param], lr=0.1)
        param.grad = np.ones(1, dtype=np.float32)
        optimizer.step()
        assert param.data[0] == 3.0
