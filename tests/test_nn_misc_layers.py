"""Tests for Dropout, Flatten, Sequential and losses."""

import numpy as np
import pytest

from repro import nn


class TestDropout:
    def test_eval_is_identity(self):
        drop = nn.Dropout(0.5, seed=0)
        drop.eval()
        x = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        np.testing.assert_array_equal(drop(x), x)

    def test_training_zeroes_roughly_p(self):
        drop = nn.Dropout(0.5, seed=0)
        drop.train()
        x = np.ones(10_000, dtype=np.float32)
        out = drop(x)
        zero_fraction = float((out == 0).mean())
        assert 0.45 < zero_fraction < 0.55

    def test_inverted_scaling_preserves_mean(self):
        drop = nn.Dropout(0.3, seed=1)
        drop.train()
        x = np.ones(100_000, dtype=np.float32)
        assert drop(x).mean() == pytest.approx(1.0, abs=0.02)

    def test_p_zero_identity_even_training(self):
        drop = nn.Dropout(0.0)
        drop.train()
        x = np.ones(10, dtype=np.float32)
        np.testing.assert_array_equal(drop(x), x)

    def test_backward_uses_same_mask(self):
        drop = nn.Dropout(0.5, seed=2)
        drop.train()
        x = np.ones(1000, dtype=np.float32)
        out = drop(x)
        grad = drop.backward(np.ones(1000, dtype=np.float32))
        np.testing.assert_array_equal(grad, out)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)
        with pytest.raises(ValueError):
            nn.Dropout(-0.1)


class TestFlatten:
    def test_forward_shape(self):
        flat = nn.Flatten()
        x = np.zeros((2, 3, 4, 5), dtype=np.float32)
        assert flat(x).shape == (2, 60)

    def test_backward_restores_shape(self):
        flat = nn.Flatten()
        flat.train()
        x = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(np.float32)
        out = flat(x)
        grad = flat.backward(out)
        np.testing.assert_array_equal(grad, x)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            nn.Flatten()(np.zeros(3, dtype=np.float32))


class TestSequential:
    def _model(self):
        return nn.Sequential(nn.Linear(4, 8, seed=0), nn.ReLU(), nn.Linear(8, 2, seed=1))

    def test_forward_chains(self):
        model = self._model()
        x = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
        manual = model[2](model[1](model[0](x)))
        np.testing.assert_array_equal(model(x), manual)

    def test_len_iter_getitem(self):
        model = self._model()
        assert len(model) == 3
        assert isinstance(model[1], nn.ReLU)
        assert isinstance(model[-1], nn.Linear)
        assert len(list(model)) == 3

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            self._model()[3]

    def test_replace_swaps_layer(self):
        model = self._model()
        old = model.replace(1, nn.ReLU6())
        assert isinstance(old, nn.ReLU)
        assert isinstance(model[1], nn.ReLU6)

    def test_replace_propagates_training_mode(self):
        model = self._model()
        model.eval()
        model.replace(1, nn.ReLU6())
        assert not model[1].training

    def test_append(self):
        model = self._model()
        model.append(nn.Softmax())
        assert len(model) == 4

    def test_non_module_rejected(self):
        with pytest.raises(TypeError):
            nn.Sequential("not a module")  # type: ignore[arg-type]

    def test_backward_through_chain(self):
        model = self._model()
        model.train()
        x = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
        out = model(x)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert model[0].weight.grad is not None


class TestCrossEntropyLoss:
    def test_perfect_prediction_low_loss(self):
        loss_fn = nn.CrossEntropyLoss()
        logits = np.asarray([[10.0, -10.0], [-10.0, 10.0]], dtype=np.float32)
        loss, _ = loss_fn(logits, np.asarray([0, 1]))
        assert loss < 1e-3

    def test_uniform_prediction_log_c(self):
        loss_fn = nn.CrossEntropyLoss()
        logits = np.zeros((4, 10), dtype=np.float32)
        loss, _ = loss_fn(logits, np.zeros(4, dtype=np.int64))
        assert loss == pytest.approx(np.log(10), rel=1e-4)

    def test_gradient_sums_to_zero_per_row(self):
        loss_fn = nn.CrossEntropyLoss()
        logits = np.random.default_rng(0).standard_normal((5, 3)).astype(np.float32)
        _, grad = loss_fn(logits, np.asarray([0, 1, 2, 0, 1]))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-6)

    def test_gradient_matches_numerical(self):
        loss_fn = nn.CrossEntropyLoss()
        logits = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
        labels = np.asarray([1, 3, 0])
        _, grad = loss_fn(logits, labels)
        eps = 1e-2
        for i in range(3):
            for j in range(4):
                bumped = logits.copy()
                bumped[i, j] += eps
                upper, _ = loss_fn(bumped, labels)
                bumped[i, j] -= 2 * eps
                lower, _ = loss_fn(bumped, labels)
                numeric = (upper - lower) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, abs=2e-3)

    def test_label_smoothing_increases_uniformity(self):
        plain = nn.CrossEntropyLoss()
        smooth = nn.CrossEntropyLoss(label_smoothing=0.2)
        logits = np.asarray([[5.0, 0.0, 0.0]], dtype=np.float32)
        labels = np.asarray([0])
        loss_plain, _ = plain(logits, labels)
        loss_smooth, _ = smooth(logits, labels)
        assert loss_smooth > loss_plain

    def test_shape_validation(self):
        loss_fn = nn.CrossEntropyLoss()
        with pytest.raises(ValueError):
            loss_fn(np.zeros((2, 3, 4), dtype=np.float32), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            loss_fn(np.zeros((2, 3), dtype=np.float32), np.zeros(3, dtype=int))

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            nn.CrossEntropyLoss(label_smoothing=1.0)
