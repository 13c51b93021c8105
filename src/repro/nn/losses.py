"""Loss functions.

Each loss returns ``(value, grad_wrt_logits)`` so the training loop can
seed the model's backward pass without an autograd engine.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import log_softmax, one_hot, softmax

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss:
    """Softmax cross-entropy on raw logits with optional label smoothing."""

    def __init__(self, label_smoothing: float = 0.0):
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(
                f"label_smoothing must lie in [0, 1), got {label_smoothing}"
            )
        self.label_smoothing = float(label_smoothing)

    def __call__(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        logits = np.asarray(logits, dtype=np.float32)
        labels = np.asarray(labels)
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, C), got shape {logits.shape}")
        if labels.shape != (logits.shape[0],):
            raise ValueError(
                f"labels must be (N,) = ({logits.shape[0]},), got {labels.shape}"
            )
        n, num_classes = logits.shape
        targets = one_hot(labels, num_classes)
        if self.label_smoothing > 0.0:
            smooth = self.label_smoothing
            targets = targets * (1.0 - smooth) + smooth / num_classes

        log_probs = log_softmax(logits, axis=1)
        loss = float(-(targets * log_probs).sum() / n)
        grad = (softmax(logits, axis=1) - targets) / n
        return loss, grad.astype(np.float32)
