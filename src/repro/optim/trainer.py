"""Mini-batch training loop.

The paper evaluates *pre-trained* AlexNet/VGG-16 models.  With no network
access, this trainer is how the model zoo produces those pre-trained
weights on the synthetic dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.loader import DataLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer

__all__ = ["EpochStats", "TrainingHistory", "Trainer", "evaluate_accuracy"]


@dataclass
class EpochStats:
    """Metrics recorded at the end of one epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    val_accuracy: "float | None"
    lr: float


@dataclass
class TrainingHistory:
    """Sequence of per-epoch stats."""

    epochs: list[EpochStats] = field(default_factory=list)


def evaluate_accuracy(model: Module, loader: DataLoader) -> float:
    """Top-1 accuracy of ``model`` over every batch of ``loader`` (eval mode)."""
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    try:
        for images, labels in loader:
            logits = model(images)
            predictions = np.argmax(logits, axis=1)
            correct += int((predictions == labels).sum())
            total += labels.shape[0]
    finally:
        model.train(was_training)
    if total == 0:
        raise ValueError("loader produced no samples")
    return correct / total


class Trainer:
    """Drives epochs of forward/backward/update over a :class:`DataLoader`."""

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: "Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]] | None" = None,
        grad_clip: "float | None" = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn if loss_fn is not None else CrossEntropyLoss()
        if grad_clip is not None and grad_clip <= 0:
            raise ValueError(f"grad_clip must be positive, got {grad_clip}")
        self.grad_clip = grad_clip

    def _clip_gradients(self) -> None:
        """Scale all gradients so their global L2 norm is at most grad_clip."""
        if self.grad_clip is None:
            return
        total = 0.0
        grads = [p.grad for p in self.optimizer.parameters if p.grad is not None]
        for grad in grads:
            total += float(np.sum(grad.astype(np.float64) ** 2))
        norm = float(np.sqrt(total))
        if norm > self.grad_clip and norm > 0:
            scale = np.float32(self.grad_clip / norm)
            for grad in grads:
                grad *= scale

    def train_epoch(self, loader: DataLoader) -> tuple[float, float]:
        """One pass over ``loader``; returns (mean_loss, accuracy)."""
        self.model.train()
        total_loss = 0.0
        correct = 0
        total = 0
        for images, labels in loader:
            self.optimizer.zero_grad()
            logits = self.model(images)
            loss, grad = self.loss_fn(logits, labels)
            self.model.backward(grad)
            self._clip_gradients()
            self.optimizer.step()

            batch = labels.shape[0]
            total_loss += loss * batch
            correct += int((np.argmax(logits, axis=1) == labels).sum())
            total += batch
        if total == 0:
            raise ValueError("loader produced no samples")
        return total_loss / total, correct / total

    def fit(
        self,
        train_loader: DataLoader,
        epochs: int,
        val_loader: "DataLoader | None" = None,
        patience: "int | None" = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for up to ``epochs`` epochs.

        If ``patience`` is given alongside ``val_loader``, training stops
        early once validation accuracy fails to improve for ``patience``
        consecutive epochs (the best-so-far weights are restored).
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        history = TrainingHistory()
        best_acc = -1.0
        best_state: "dict[str, np.ndarray] | None" = None
        stale = 0

        for epoch in range(1, epochs + 1):
            train_loss, train_acc = self.train_epoch(train_loader)
            val_acc = (
                evaluate_accuracy(self.model, val_loader)
                if val_loader is not None
                else None
            )
            history.epochs.append(
                EpochStats(epoch, train_loss, train_acc, val_acc, self.optimizer.lr)
            )
            if verbose:
                val_text = f" val_acc={val_acc:.3f}" if val_acc is not None else ""
                print(
                    f"epoch {epoch:3d}: loss={train_loss:.4f} "
                    f"train_acc={train_acc:.3f}{val_text} lr={self.optimizer.lr:.2e}"
                )

            if val_acc is not None:
                if val_acc > best_acc:
                    best_acc = val_acc
                    best_state = self.model.state_dict()
                    stale = 0
                else:
                    stale += 1
                    if patience is not None and stale >= patience:
                        break

        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return history
