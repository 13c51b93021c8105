"""Tests for the training loop."""

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset, DataLoader, SyntheticCIFAR10
from repro.models import MLP
from repro.optim import Adam, Optimizer, Trainer, evaluate_accuracy


def _toy_problem(n=200, seed=0):
    """Linearly separable 2-class problem in 8 dimensions."""
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((n, 8)).astype(np.float32)
    labels = (images[:, 0] + images[:, 1] > 0).astype(np.int64)
    # Reshape to (N, 1, 1, 8) so Flatten-based models accept it.
    return ArrayDataset(images.reshape(n, 1, 1, 8), labels)


class _PlainGradientStep(Optimizer):
    """``w -= lr * grad``: the step scales with the gradient, so clipping
    the gradient bounds it (Adam normalizes its step and would not)."""

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is not None:
                param.data -= self.lr * param.grad


class TestTrainer:
    def test_loss_decreases(self):
        dataset = _toy_problem()
        model = MLP(8, 2, hidden=(16,), seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-2))
        history = trainer.fit(DataLoader(dataset, 32, shuffle=True, seed=0), epochs=8)
        losses = [epoch.train_loss for epoch in history.epochs]
        assert losses[-1] < losses[0]
        assert history.epochs[-1].train_accuracy > 0.9

    def test_early_stopping_restores_best(self):
        dataset = _toy_problem()
        val = _toy_problem(80, seed=1)
        model = MLP(8, 2, hidden=(16,), seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-2))
        history = trainer.fit(
            DataLoader(dataset, 32, shuffle=True, seed=0),
            epochs=30,
            val_loader=DataLoader(val, 64),
            patience=2,
        )
        assert len(history.epochs) <= 30
        best = max(epoch.val_accuracy for epoch in history.epochs)
        restored = evaluate_accuracy(model, DataLoader(val, 64))
        assert restored == pytest.approx(best, abs=1e-9)

    def test_model_left_in_eval_mode(self):
        dataset = _toy_problem()
        model = MLP(8, 2, hidden=(8,), seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.1))
        trainer.fit(DataLoader(dataset, 64), epochs=1)
        assert not model.training

    def test_grad_clip_bounds_norm(self):
        dataset = _toy_problem()
        model = MLP(8, 2, hidden=(8,), seed=0)
        optimizer = _PlainGradientStep(model.parameters(), lr=1e-3)
        trainer = Trainer(model, optimizer, grad_clip=1e-6)
        before = model.state_dict()
        trainer.fit(DataLoader(dataset, 64), epochs=1)
        after = model.state_dict()
        # Clipping to a tiny norm means weights barely move.
        total_move = sum(
            float(np.abs(after[k] - before[k]).sum()) for k in before
        )
        assert total_move < 1e-3

    def test_invalid_epochs(self):
        model = MLP(8, 2, hidden=(8,), seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.1))
        with pytest.raises(ValueError):
            trainer.fit(DataLoader(_toy_problem(), 32), epochs=0)

    def test_invalid_grad_clip(self):
        model = MLP(8, 2, hidden=(8,), seed=0)
        with pytest.raises(ValueError):
            Trainer(model, Adam(model.parameters(), lr=0.1), grad_clip=0.0)

    def test_verbose_prints(self, capsys):
        dataset = _toy_problem(64)
        model = MLP(8, 2, hidden=(8,), seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.1))
        trainer.fit(DataLoader(dataset, 64), epochs=1, verbose=True)
        assert "epoch" in capsys.readouterr().out


class TestEvaluateAccuracy:
    def test_perfect_model(self):
        images = np.zeros((10, 1, 1, 4), dtype=np.float32)
        images[:5, 0, 0, 0] = 10.0
        labels = np.asarray([0] * 5 + [1] * 5, dtype=np.int64)

        class Oracle(nn.Module):
            def forward(self, x):
                flat = x.reshape(x.shape[0], -1)
                return np.stack([flat[:, 0], 5.0 - flat[:, 0]], axis=1)

        accuracy = evaluate_accuracy(Oracle(), DataLoader(ArrayDataset(images, labels), 4))
        assert accuracy == 1.0

    def test_synthetic_training_reaches_high_accuracy(self):
        generator = SyntheticCIFAR10(image_size=8, seed=5)
        train = generator.dataset(400, "train")
        test = generator.dataset(100, "test")
        model = MLP(3 * 8 * 8, 10, hidden=(64,), seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=2e-3))
        trainer.fit(DataLoader(train, 64, shuffle=True, seed=0), epochs=12)
        assert evaluate_accuracy(model, DataLoader(test, 64)) > 0.6
